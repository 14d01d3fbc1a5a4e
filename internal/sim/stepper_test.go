package sim

import (
	"errors"
	goruntime "runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"fnr/internal/graph"
)

// walkStepper is the stepper twin of the randomWalk test program.
type walkStepper struct{ ctx *StepContext }

func (s *walkStepper) Init(ctx *StepContext) { s.ctx = ctx }

func (s *walkStepper) Next(v *View) Action {
	return Move(s.ctx.Rand.IntN(v.Degree))
}

// stayStepper is the stepper twin of the stayer test program.
type stayStepper struct{}

func (stayStepper) Init(*StepContext) {}

func (stayStepper) Next(*View) Action { return Stay() }

func resultsEqual(a, b *Result) bool {
	if a.Met != b.Met || a.MeetRound != b.MeetRound || a.MeetVertex != b.MeetVertex ||
		a.Rounds != b.Rounds || a.A != b.A || a.B != b.B || a.Writes != b.Writes {
		return false
	}
	if len(a.Agents) != len(b.Agents) {
		return false
	}
	for i := range a.Agents {
		if a.Agents[i] != b.Agents[i] {
			return false
		}
	}
	return true
}

// Seed-0 regression: the default seed is normalized inside the
// simulator, so a raw Seed 0 and an explicit Seed 1 are the same run
// on every path. (Before the fix, fnr.Rendezvous normalized 0 to 1
// but direct sim.Run calls and the engine used the raw seed, so the
// same logical run differed by entry point.)
func TestSeedZeroNormalizedToOne(t *testing.T) {
	g := mustComplete(t, 12)
	run := func(seed uint64) *Result {
		res, err := Run(Config{Graph: g, StartA: 0, StartB: 7, Seed: seed, MaxRounds: 100000}, randomWalk, randomWalk)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if !resultsEqual(run(0), run(1)) {
		t.Error("program path: Seed 0 and Seed 1 are different runs")
	}
	runSt := func(seed uint64) *Result {
		res, err := RunSteppers(Config{Graph: g, StartA: 0, StartB: 7, Seed: seed, MaxRounds: 100000}, &walkStepper{}, &walkStepper{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if !resultsEqual(runSt(0), runSt(1)) {
		t.Error("stepper path: Seed 0 and Seed 1 are different runs")
	}
	if !resultsEqual(run(0), runSt(0)) {
		t.Error("program and stepper paths disagree on the default-seeded run")
	}
}

// Co-located writes: when both agents write the same vertex in the
// same round (possible under DisableMeeting), commits happen in agent
// order, so agent b's value wins — an explicit guarantee, with both
// writes counted.
func TestColocatedWritesLastWriterWins(t *testing.T) {
	g := mustComplete(t, 4)
	writer := func(val int64) Program {
		return func(e *Env) {
			if err := e.WriteWhiteboard(val); err != nil {
				panic(err)
			}
			e.Stay() // commit the write, stay put
			if e.Whiteboard() != 222 {
				panic("board does not hold agent b's value")
			}
			e.Halt()
		}
	}
	res, err := Run(Config{
		Graph: g, StartA: 1, StartB: 1,
		Whiteboards: true, DisableMeeting: true, MaxRounds: 10,
	}, writer(111), writer(222))
	if err != nil {
		t.Fatal(err)
	}
	if res.Writes != 2 {
		t.Fatalf("Writes = %d, want 2 (both co-located writes count)", res.Writes)
	}

	// Same guarantee on the stepper path.
	mk := func(val int64) Stepper { return &colocatedWriter{val: val} }
	resSt, err := RunSteppers(Config{
		Graph: g, StartA: 1, StartB: 1,
		Whiteboards: true, DisableMeeting: true, MaxRounds: 10,
	}, mk(111), mk(222))
	if err != nil {
		t.Fatal(err)
	}
	if resSt.Writes != 2 {
		t.Fatalf("stepper path: Writes = %d, want 2", resSt.Writes)
	}
}

// colocatedWriter writes its value at round 0, then verifies agent
// b's value won before halting.
type colocatedWriter struct {
	val  int64
	step int
}

func (s *colocatedWriter) Init(*StepContext) {}

func (s *colocatedWriter) Next(v *View) Action {
	s.step++
	switch s.step {
	case 1:
		return Stay().WithWrite(s.val)
	default:
		if v.Whiteboard != 222 {
			return Abort(errors.New("board does not hold agent b's value"))
		}
		return Halt()
	}
}

// haltAfterStays is the stepper twin of a program that stays n rounds
// and then returns: it halts on its first acting round after the stays.
type haltAfterStays struct{ n int }

func (s *haltAfterStays) Init(*StepContext) {}

func (s *haltAfterStays) Next(*View) Action {
	if s.n == 0 {
		return Halt()
	}
	s.n--
	return Stay()
}

// chaoticProgram draws a random action every acting round: stays,
// multi-round waits, moves and whiteboard writes.
func chaoticProgram(e *Env) {
	r := e.Rand()
	for {
		switch r.IntN(5) {
		case 0:
			e.Stay()
		case 1:
			e.StayFor(1 + int64(r.IntN(5)))
		case 2, 3:
			if err := e.MoveToPort(r.IntN(e.Degree())); err != nil {
				panic(err)
			}
		case 4:
			if err := e.WriteWhiteboard(int64(r.IntN(50))); err != nil {
				panic(err)
			}
			e.Stay()
		}
	}
}

// chaoticStepper is chaoticProgram's stepper twin: the same actions
// from the same draws, in the same order.
type chaoticStepper struct{ ctx *StepContext }

func (s *chaoticStepper) Init(ctx *StepContext) { s.ctx = ctx }

func (s *chaoticStepper) Next(v *View) Action {
	r := s.ctx.Rand
	switch r.IntN(5) {
	case 0:
		return Stay()
	case 1:
		return StayFor(1 + int64(r.IntN(5)))
	case 2, 3:
		return Move(r.IntN(v.Degree))
	default:
		return Stay().WithWrite(int64(r.IntN(50)))
	}
}

// A Program on its coroutine host must be observationally identical to
// its native stepper twin: same results on normal runs, the same
// halting round, and a panic surfacing as the agent's error in the
// round it happened.
func TestProgramStepperMatchesNativeTwins(t *testing.T) {
	g := mustComplete(t, 12)
	cfg := Config{Graph: g, StartA: 0, StartB: 7, Seed: 42, MaxRounds: 100000}
	viaProg, err := Run(cfg, randomWalk, stayer)
	if err != nil {
		t.Fatal(err)
	}
	native, err := RunSteppers(cfg, &walkStepper{}, stayStepper{})
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(viaProg, native) || !viaProg.Met {
		t.Fatalf("program and native twin diverge: %+v vs %+v", viaProg, native)
	}

	// A program panic fails the run with the agent's error, in the
	// round the program panicked: bomber stays through round 0 and
	// panics on its round-1 action, so round 0 is the last observed.
	bomber := func(e *Env) { e.Stay(); panic("boom") }
	last := int64(-1)
	_, err = Run(Config{Graph: g, StartA: 0, StartB: 7, MaxRounds: 10,
		Observer: func(ev RoundEvent) { last = ev.Round }}, bomber, stayer)
	if err == nil || err.Error() != "sim: agent a: program panic: boom" {
		t.Fatalf("panic error = %v, want %q", err, "sim: agent a: program panic: boom")
	}
	if last != 0 {
		t.Fatalf("panic surfaced after round %d was observed, want round 0", last)
	}

	// Returning and calling Halt land on the twin's halting round.
	quitter := func(e *Env) { e.Stay(); e.Stay() }
	halter := func(e *Env) { e.Stay(); e.Halt() }
	small := Config{Graph: g, StartA: 0, StartB: 7, MaxRounds: 100}
	rp, err := Run(small, quitter, halter)
	if err != nil {
		t.Fatal(err)
	}
	rn, err := RunSteppers(small, &haltAfterStays{n: 2}, &haltAfterStays{n: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(rp, rn) {
		t.Fatalf("halt timing diverges: %+v vs %+v", rp, rn)
	}
	want := AgentStats{Stays: 2, Halted: true}
	if rp.Rounds != 3 || rp.A != want || rp.B != (AgentStats{Stays: 1, Halted: true}) {
		t.Fatalf("halting run = %+v, want 3 rounds with a staying 2 and b staying 1, both halted", rp)
	}
}

// Property: arbitrary seeds agree between a coroutine-hosted chaotic
// program and its native twin, whiteboard traffic included.
func TestProgramStepperEquivalenceProperty(t *testing.T) {
	g := mustComplete(t, 9)
	check := func(seed uint64) bool {
		cfg := Config{
			Graph: g, StartA: 3, StartB: 6,
			NeighborIDs: true, Whiteboards: true,
			Seed: seed, MaxRounds: 300, DisableMeeting: true,
		}
		rp, err1 := Run(cfg, chaoticProgram, chaoticProgram)
		rn, err2 := RunSteppers(cfg, &chaoticStepper{}, &chaoticStepper{})
		if err1 != nil || err2 != nil {
			return false
		}
		return resultsEqual(rp, rn)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// A TrialContext reused across many runs must give exactly the
// results of fresh contexts — scratch reuse is invisible.
func TestTrialContextReuse(t *testing.T) {
	g := mustComplete(t, 10)
	tc := NewTrialContext()
	for seed := uint64(1); seed <= 20; seed++ {
		cfg := Config{Graph: g, StartA: 0, StartB: 5, Whiteboards: true, Seed: seed, MaxRounds: 100000}
		reused, err := tc.RunSteppers(cfg, &walkStepper{}, &walkStepper{})
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := RunSteppers(cfg, &walkStepper{}, &walkStepper{})
		if err != nil {
			t.Fatal(err)
		}
		if !resultsEqual(reused, fresh) {
			t.Fatalf("seed %d: reused context diverged: %+v vs %+v", seed, reused, fresh)
		}
	}
}

func TestRunSteppersValidatesConfig(t *testing.T) {
	g := mustRing(t, 4)
	if _, err := RunSteppers(Config{Graph: nil}, stayStepper{}, stayStepper{}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := RunSteppers(Config{Graph: g, StartA: 0, StartB: 99}, stayStepper{}, stayStepper{}); err == nil {
		t.Error("out-of-range start accepted")
	}
	if _, err := RunSteppers(Config{Graph: g, StartA: 0, StartB: 1}, nil, stayStepper{}); err == nil {
		t.Error("nil stepper accepted")
	}
}

// A stepper returning an out-of-range port aborts the run like a
// program panic would.
func TestStepperBadPortErrors(t *testing.T) {
	g := mustRing(t, 4)
	bad := &badPortStepper{}
	_, err := RunSteppers(Config{Graph: g, StartA: 0, StartB: 2, MaxRounds: 5}, bad, stayStepper{})
	if err == nil || !strings.Contains(err.Error(), "port") {
		t.Fatalf("err = %v, want port error", err)
	}
}

type badPortStepper struct{}

func (badPortStepper) Init(*StepContext) {}

func (badPortStepper) Next(*View) Action { return Move(99) }

// Abort surfaces its error with the agent prefix.
func TestStepperAbort(t *testing.T) {
	g := mustRing(t, 4)
	_, err := RunSteppers(Config{Graph: g, StartA: 0, StartB: 2, MaxRounds: 5},
		stayStepper{}, &abortStepper{})
	if err == nil || !strings.Contains(err.Error(), "agent b") || !strings.Contains(err.Error(), "impossible state") {
		t.Fatalf("err = %v, want agent-b abort", err)
	}
}

type abortStepper struct{}

func (abortStepper) Init(*StepContext) {}

func (abortStepper) Next(*View) Action { return Abort(errors.New("impossible state")) }

// Coroutine-hosted programs must be torn down when runs end early
// (meeting, budget, other agent's panic): the goroutine count stays
// flat across many abandoned runs.
func TestProgramStepperNoLeaks(t *testing.T) {
	g := mustRing(t, 6)
	before := goruntime.NumGoroutine()
	for i := 0; i < 200; i++ {
		// idWalker meets the stayer mid-program, so the walker's
		// coroutine is abandoned mid-run every time.
		_, err := RunSteppers(Config{Graph: g, StartA: 0, StartB: 3, NeighborIDs: true, MaxRounds: 100, Seed: uint64(i)},
			NewProgramStepper(idWalker), NewProgramStepper(stayer))
		if err != nil {
			t.Fatal(err)
		}
	}
	goruntime.GC()
	after := goruntime.NumGoroutine()
	if after > before+4 {
		t.Fatalf("goroutines grew from %d to %d across 200 runs", before, after)
	}
}

// StayFor actions below one round are clamped: a Stepper cannot act
// without consuming a round (unlike Env.StayFor's no-op).
func TestStepperStayForClamped(t *testing.T) {
	g := mustRing(t, 4)
	res, err := RunSteppers(Config{Graph: g, StartA: 0, StartB: 2, MaxRounds: 7},
		&zeroStayStepper{}, stayStepper{})
	if err != nil {
		t.Fatal(err)
	}
	if res.A.Stays != 7 {
		t.Fatalf("stays = %d, want 7 one-round stays", res.A.Stays)
	}
}

type zeroStayStepper struct{}

func (zeroStayStepper) Init(*StepContext) {}

func (zeroStayStepper) Next(*View) Action { return StayFor(-3) }

// TestViewPortOfID reads a hand-located view of a star whose leaves
// carry IDs 10, 20, 30 behind ports 0, 1, 2: the per-port read, the
// bulk append and PortOfID agree under neighbor-ID access, and a KT0
// view exposes none of them.
func TestViewPortOfID(t *testing.T) {
	b := graph.NewBuilder(4)
	for leaf := graph.Vertex(1); leaf <= 3; leaf++ {
		b.MustAddEdge(0, leaf)
		b.SetID(leaf, 10*int64(leaf))
	}
	b.SetID(0, 5)
	b.SetNPrime(40)
	g := b.MustBuild()
	v := &View{g: g, kt1: true}
	v.locate(0)
	if got := v.AppendNeighborIDs(nil); !slices.Equal(got, []int64{10, 20, 30}) {
		t.Fatalf("AppendNeighborIDs = %v", got)
	}
	if v.NeighborID(2) != 30 || v.HereID != 5 || v.Degree != 3 {
		t.Fatalf("NeighborID(2) = %d, HereID = %d, Degree = %d", v.NeighborID(2), v.HereID, v.Degree)
	}
	if p, ok := v.PortOfID(20); !ok || p != 1 {
		t.Fatalf("PortOfID(20) = %d, %v", p, ok)
	}
	if _, ok := v.PortOfID(99); ok {
		t.Fatal("missing ID reported present")
	}
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		f()
	}
	// Port 3 would read the next vertex's first arc without the check.
	mustPanic("NeighborID(3) at degree 3", func() { v.NeighborID(3) })
	v = &View{g: g}
	v.locate(0)
	if _, ok := v.PortOfID(10); ok {
		t.Fatal("KT0 view reported a port")
	}
	if got := v.AppendNeighborIDs(nil); got != nil {
		t.Fatalf("KT0 view appended %v", got)
	}
	mustPanic("KT0 NeighborID", func() { v.NeighborID(0) })
	if _, ok := (&View{}).PortOfID(1); ok {
		t.Fatal("zero view reported a port")
	}
}
