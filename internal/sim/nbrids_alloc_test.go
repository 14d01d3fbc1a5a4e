package sim

import (
	"errors"
	"math/rand/v2"
	goruntime "runtime"
	"testing"

	"fnr/internal/graph"
)

// idReader is a reusable random walker that reads every neighbor ID
// of every vertex it stands on, once per port and once in bulk into a
// buffer it keeps across trials: the reads of dfs's scan and of the
// paper steppers' neighborhood copies.
type idReader struct {
	rng *rand.Rand
	buf []int64
	sum int64
}

func (s *idReader) Init(ctx *StepContext)  { s.rng = ctx.Rand }
func (s *idReader) Reset(ctx *StepContext) { s.Init(ctx) }

var errShortRead = errors.New("bulk read disagrees with the degree")

func (s *idReader) Next(v *View) Action {
	for p := range v.Degree {
		s.sum += v.NeighborID(p)
	}
	s.buf = v.AppendNeighborIDs(s.buf[:0])
	if len(s.buf) != v.Degree {
		return Abort(errShortRead)
	}
	return Move(s.rng.IntN(v.Degree))
}

// TestNeighborIDReadAllocs is the allocation gate for neighbor-ID
// reads (CI runs it in the -run 'Allocs' step): on a warm lane, whole
// trials of rounds that read every neighbor ID per port and in bulk
// allocate 0 B, under identity naming and under a permuted one.
func TestNeighborIDReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	rng := rand.New(rand.NewPCG(24, 9))
	g, err := graph.PlantedMinDegree(512, 24, rng)
	if err != nil {
		t.Fatal(err)
	}
	b := graph.Rebuild(g)
	b.PermuteIDs(rng)
	for name, g := range map[string]*graph.Graph{"identity": g, "permuted": b.MustBuild()} {
		const trials = 16
		cfg := Config{Graph: g, StartA: 0, StartB: 1, NeighborIDs: true, DisableMeeting: true, MaxRounds: 256}
		emit := func(trial int, _ *Result, err error) {
			if err != nil {
				t.Fatalf("%s trial %d: %v", name, trial, err)
			}
		}
		lane := NewTrialLane(func() (Stepper, Stepper, error) { return &idReader{}, &idReader{}, nil })
		lane.Run(cfg, laneSeed, 0, trials, emit) // warm the team and its buffers
		// A read that allocates does so in every window; the runtime
		// rarely books a few bytes of its own into one, so the gate
		// takes the least of three windows.
		prev := goruntime.GOMAXPROCS(1)
		var bytes uint64
		for range 3 {
			var m0, m1 goruntime.MemStats
			goruntime.GC()
			goruntime.ReadMemStats(&m0)
			lane.Run(cfg, laneSeed, 0, trials, emit)
			goruntime.ReadMemStats(&m1)
			if bytes = m1.TotalAlloc - m0.TotalAlloc; bytes == 0 {
				break
			}
		}
		goruntime.GOMAXPROCS(prev)
		lane.Close()
		if bytes != 0 {
			t.Errorf("%s naming: %d trials of neighbor-ID reads on a warm lane allocated %d B, want 0", name, trials, bytes)
		}
	}
}
