package sim

import (
	"testing"

	"fnr/internal/graph"
)

// markWalker walks random ports and writes a mark (never NoMark) on
// every vertex it leaves; with panicAt > 0 it panics out of Next on
// that acting round. It is Reusable, so a lane re-arms it in place.
type markWalker struct {
	ctx     *StepContext
	step    int
	panicAt int
}

func (s *markWalker) Init(ctx *StepContext)  { s.ctx, s.step = ctx, 0 }
func (s *markWalker) Reset(ctx *StepContext) { s.Init(ctx) }

func (s *markWalker) Next(v *View) Action {
	s.step++
	if s.step == s.panicAt {
		panic("mark walker panic")
	}
	return Move(s.ctx.Rand.IntN(v.Degree)).WithWrite(int64(s.step))
}

// marked counts the boards of tc that hold a mark.
func marked(tc *TrialContext) int {
	k := 0
	for _, b := range tc.boards {
		if b != NoMark {
			k++
		}
	}
	return k
}

// A re-armed trial must see NoMark on every board, however the
// previous trials left them: on the same graph, after a graph of
// another n (smaller and larger), and after a trial that ran without
// whiteboards in between.
func TestBoardRearmClearsEveryBoard(t *testing.T) {
	small, big := mustComplete(t, 8), mustComplete(t, 24)
	tc := NewTrialContext()
	writeOn := func(g *graph.Graph, seed uint64, boards bool) {
		t.Helper()
		cfg := Config{Graph: g, StartA: 0, StartB: 1, Whiteboards: boards, DisableMeeting: true, MaxRounds: 40, Seed: seed}
		if _, err := tc.RunSteppers(cfg, &markWalker{}, &markWalker{}); err != nil {
			t.Fatal(err)
		}
		if boards && marked(tc) < 2 {
			t.Fatalf("seed %d: only %d boards marked; the check below would be vacuous", seed, marked(tc))
		}
	}
	rearmOn := func(g *graph.Graph, what string) {
		t.Helper()
		cfg := Config{Graph: g, StartA: 0, StartB: 1, Whiteboards: true}
		tc.arm(cfg, []Stepper{stayStepper{}, stayStepper{}}, false)
		if len(tc.rt.boards) != g.N() {
			t.Fatalf("%s: %d boards armed, want %d", what, len(tc.rt.boards), g.N())
		}
		if k := marked(tc); k != 0 {
			t.Fatalf("%s: %d boards still marked after the re-arm", what, k)
		}
	}
	writeOn(big, 1, true)
	rearmOn(big, "same graph")
	writeOn(big, 2, true)
	writeOn(big, 3, true)
	rearmOn(big, "same graph, two trials on")
	writeOn(big, 4, true)
	rearmOn(small, "smaller n")
	writeOn(small, 5, true)
	rearmOn(big, "larger n")
	writeOn(big, 6, true)
	writeOn(small, 7, false)
	rearmOn(big, "after a whiteboard-free trial on another graph")
	writeOn(big, 8, true)
	writeOn(big, 9, false)
	rearmOn(big, "after a whiteboard-free trial on the same graph")
}

// boardCheckHook checks, after every lane arm, that the armed trial
// starts on clean boards, and arms one trial's panic.
type boardCheckHook struct {
	t      *testing.T
	lane   *TrialLane
	target int
	arms   int
}

func (h *boardCheckHook) PreArm(int) error { return nil }

func (h *boardCheckHook) PostArm(trial int, team []Stepper) {
	h.arms++
	if k := marked(h.lane.tc); k != 0 {
		h.t.Errorf("trial %d armed with %d boards still marked", trial, k)
	}
	if trial == h.target {
		team[0].(*markWalker).panicAt = 5
	}
}

// The lane path re-arms its resident context the same way, including
// the fresh context it rebuilds after a trial panicked mid-run with
// boards written.
func TestLaneBoardRearmAfterPanic(t *testing.T) {
	g := mustComplete(t, 16)
	cfg := Config{Graph: g, StartA: 0, StartB: 1, Whiteboards: true, DisableMeeting: true, MaxRounds: 40}
	const trials, target = 8, 3
	lane := NewTrialLane(func() (Stepper, Stepper, error) { return &markWalker{}, &markWalker{}, nil })
	defer lane.Close()
	hook := &boardCheckHook{t: t, lane: lane, target: target}
	lane.Hook = hook
	lane.Run(cfg, laneSeed, 0, trials, func(trial int, res *Result, err error) {
		if trial == target {
			if err == nil || err.Error() != "sim: trial panicked: mark walker panic" {
				t.Errorf("trial %d: error %v, want the walker's panic", trial, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if marked(lane.tc) < 2 {
			t.Fatalf("trial %d marked %d boards; the check would be vacuous", trial, marked(lane.tc))
		}
	})
	if hook.arms != trials {
		t.Fatalf("%d arms, want %d", hook.arms, trials)
	}
}
