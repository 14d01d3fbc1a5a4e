package engine

import (
	"math/rand/v2"
	"runtime"
	"testing"

	"fnr/internal/graph"
	"fnr/internal/sim"

	_ "fnr/internal/algo/paper"
)

// bytesPerTrial measures the average heap bytes and allocation count
// one trial costs under the given trial-context supplier.
func bytesPerTrial(t *testing.T, b Batch, trials int, tcFor func() *sim.TrialContext) (bytesPer, allocsPer float64) {
	t.Helper()
	spec, opts, err := b.prepare()
	if err != nil {
		t.Fatal(err)
	}
	// Warm: run every measured trial once first, so a reusable context
	// has grown its scratch to each seed's high-water mark and the
	// measured pass sees the steady state the gates are about. (For
	// the fresh-context supplier this warm-up changes nothing.)
	for i := 0; i <= trials; i++ {
		if out := soloTrial(b, spec, opts, tcFor(), i); out.Err {
			t.Fatalf("warm-up trial %d errored", i)
		}
	}
	bytes, allocs := heapAllocs(func() {
		for i := 1; i <= trials; i++ {
			if out := soloTrial(b, spec, opts, tcFor(), i); out.Err {
				t.Fatalf("trial %d errored", i)
			}
		}
	})
	return float64(bytes) / float64(trials), float64(allocs) / float64(trials)
}

// heapAllocs returns the heap bytes and objects allocated while f runs.
// MemStats counts are process-wide, so the window runs at GOMAXPROCS 1:
// ReadMemStats restarts the world, and with an idle P to hand out that
// restart may start a new OS thread, whose runtime structures (about
// 5 KB in 5 objects) are heap-allocated and would land in the window —
// a host under load makes that likely. With the one P held by the
// caller there is no idle P, so no thread start.
func heapAllocs(f func()) (bytes, allocs uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc, m1.Mallocs - m0.Mallocs
}

// TestWhiteboardTrialScratchAllocs is the allocation-regression gate
// for the per-trial walker scratch: on a reused sim.TrialContext the
// Theorem-1 whiteboard algorithm must not re-allocate its Θ(n') dense
// idspace arrays (≈ 24 bytes per ID before the scratch fold) or its
// per-Construct counters each trial.
func TestWhiteboardTrialScratchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const n, d = 4096, 80
	rng := rand.New(rand.NewPCG(21, 0xa110c))
	g, err := graph.PlantedMinDegree(n, d, rng)
	if err != nil {
		t.Fatal(err)
	}
	sa := graph.Vertex(rng.IntN(n))
	sb := g.Adj(sa)[rng.IntN(g.Degree(sa))]
	b := Batch{Graph: g, StartA: sa, StartB: sb, Algorithm: "whiteboard",
		Delta: g.MinDegree(), Trials: 1, Seed: 21, Workers: 1}

	shared := sim.NewTrialContext()
	warmBytes, warmAllocs := bytesPerTrial(t, b, 6, func() *sim.TrialContext { return shared })
	t.Logf("warm context: %.0f B/trial, %.1f allocs/trial", warmBytes, warmAllocs)
	// The walker's dense idspace structures alone span ≥ 24·n bytes
	// (idIndex int32+gen, idToID int64+gen, idSet gen); a reused
	// context must stay well below re-allocating them every trial.
	if limit := float64(16 * n); warmBytes > limit {
		t.Errorf("reused TrialContext allocates %.0f B/trial, want < %.0f (walker scratch not reused)", warmBytes, limit)
	}
	if warmAllocs > 128 {
		t.Errorf("reused TrialContext allocates %.1f times/trial, want ≤ 128", warmAllocs)
	}

	coldBytes, _ := bytesPerTrial(t, b, 6, sim.NewTrialContext)
	t.Logf("cold contexts: %.0f B/trial", coldBytes)
	if coldBytes < float64(24*n) {
		// Sanity for the gate itself: fresh contexts must actually pay
		// the Θ(n') cost, or the warm threshold proves nothing.
		t.Errorf("fresh TrialContext allocates only %.0f B/trial — gate no longer measures the dense arrays", coldBytes)
	}
}

// TestNativePaperStepperSetupAllocs is the per-trial setup gate for
// the native paper steppers: with a warm TrialContext the whole trial
// — builder, stepper state machines, lockstep runtime, walker and
// agent-b scratch — must cost under 1 KB of allocations, i.e. the
// iter.Pull coroutine and program-closure setup the
// SteppersFromPrograms adapter used to pay per trial is gone and
// nothing Θ(n) crept back in.
func TestNativePaperStepperSetupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const n, d = 4096, 80
	rng := rand.New(rand.NewPCG(21, 0xa110c))
	g, err := graph.PlantedMinDegree(n, d, rng)
	if err != nil {
		t.Fatal(err)
	}
	sa := graph.Vertex(rng.IntN(n))
	sb := g.Adj(sa)[rng.IntN(g.Degree(sa))]
	for _, name := range []string{"whiteboard", "noboard"} {
		b := Batch{Graph: g, StartA: sa, StartB: sb, Algorithm: name,
			Delta: g.MinDegree(), Trials: 1, Seed: 21, Workers: 1}
		shared := sim.NewTrialContext()
		bytesPer, allocsPer := bytesPerTrial(t, b, 6, func() *sim.TrialContext { return shared })
		t.Logf("%s native path, warm context: %.0f B/trial, %.1f allocs/trial", name, bytesPer, allocsPer)
		if bytesPer > 1024 {
			t.Errorf("%s native stepper trial allocates %.0f B on a warm context, want < 1024", name, bytesPer)
		}
		if allocsPer > 24 {
			t.Errorf("%s native stepper trial allocates %.1f times on a warm context, want ≤ 24", name, allocsPer)
		}
	}
}

// TestLockstepLaneAllocs is the allocation-regression gate for the
// lockstep lane path (CI runs it via the -run 'Allocs' step): once a
// lane is warm — steppers built, scratch grown — re-running a
// whiteboard trial range must cost under 128 B/trial amortized. The
// lane's whole point is that per-trial setup (stepper builds, result
// boxes, context re-arming) amortizes to nothing; this pins it.
func TestLockstepLaneAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const n, d = 4096, 80
	const trials = 64
	rng := rand.New(rand.NewPCG(21, 0xa110c))
	g, err := graph.PlantedMinDegree(n, d, rng)
	if err != nil {
		t.Fatal(err)
	}
	sa := graph.Vertex(rng.IntN(n))
	sb := g.Adj(sa)[rng.IntN(g.Degree(sa))]
	b := Batch{Graph: g, StartA: sa, StartB: sb, Algorithm: "whiteboard",
		Delta: g.MinDegree(), Trials: trials, Seed: 21, Workers: 1}
	spec, opts, err := b.prepare()
	if err != nil {
		t.Fatal(err)
	}
	cfg := trialConfig(b, spec, 0)
	seedOf := func(i int) uint64 { return TrialSeed(b.Seed, i) }
	emit := func(trial int, res *sim.Result, err error) {
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	lane := sim.NewTrialLane(func() (sim.Stepper, sim.Stepper, error) {
		return spec.Steppers(opts)
	})
	lane.Run(cfg, seedOf, 0, trials, emit) // warm the team and every trial's scratch
	bytes, allocs := heapAllocs(func() { lane.Run(cfg, seedOf, 0, trials, emit) })
	lane.Close()
	bytesPer := float64(bytes) / float64(trials)
	allocsPer := float64(allocs) / float64(trials)
	t.Logf("warm lane: %.1f B/trial, %.2f allocs/trial", bytesPer, allocsPer)
	if bytesPer > 128 {
		t.Errorf("warm lockstep lane allocates %.1f B/trial, want < 128", bytesPer)
	}
}
