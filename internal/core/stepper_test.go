package core

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"fnr/internal/graph"
	"fnr/internal/sim"
)

// The core-level differential suite: the stepper machines must
// reproduce the Program reference implementations of programs_test.go
// in the full simulation Result and in every diagnostic stat —
// iteration counts, sample visits, restarts, the constructed T^a,
// phase overflows, residency windows. Any drift in RNG draw order or
// action sequencing shows up here first. The programs run on
// sim.NewProgramStepper, the one Program host.

type diffCase struct {
	name string
	g    *graph.Graph
}

// sameResult compares two simulation Results field by field (Result
// carries a per-agent stats slice on k > 2 runs, so it is not
// comparable with ==; both runs here are two-agent, but the helper
// checks the slice anyway).
func sameResult(a, b *sim.Result) bool {
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

func diffInstances(t *testing.T) []diffCase {
	t.Helper()
	rng := rand.New(rand.NewPCG(31, 32))
	planted, err := graph.PlantedMinDegree(128, 40, rng)
	if err != nil {
		t.Fatal(err)
	}
	complete, err := graph.Complete(24)
	if err != nil {
		t.Fatal(err)
	}
	b := graph.Rebuild(planted)
	b.PermuteIDs(rng)
	permuted := b.MustBuild()
	return []diffCase{{"planted128", planted}, {"k24", complete}, {"permuted128", permuted}}
}

func TestWhiteboardStepperMatchesProgramExactly(t *testing.T) {
	for _, inst := range diffInstances(t) {
		sa, sb := adjacentStarts(t, inst.g)
		for _, know := range []Knowledge{
			{Delta: inst.g.MinDegree()},
			{Doubling: true},
		} {
			mode := "known"
			if know.Doubling {
				mode = "doubling"
			}
			for seed := uint64(1); seed <= 4; seed++ {
				cfg := sim.Config{
					Graph: inst.g, StartA: sa, StartB: sb,
					NeighborIDs: true, Whiteboards: true,
					Seed: seed, MaxRounds: 1 << 22,
				}
				pst := &WhiteboardStats{}
				progA, progB := WhiteboardAgents(PracticalParams(), know, pst)
				pres, perr := sim.RunSteppers(cfg, sim.NewProgramStepper(progA), sim.NewProgramStepper(progB))
				if perr != nil {
					t.Fatalf("%s/%s/seed%d program: %v", inst.name, mode, seed, perr)
				}
				nst := &WhiteboardStats{}
				stA, stB := WhiteboardSteppers(PracticalParams(), know, nst)
				nres, nerr := sim.RunSteppers(cfg, stA, stB)
				if nerr != nil {
					t.Fatalf("%s/%s/seed%d native: %v", inst.name, mode, seed, nerr)
				}
				if !sameResult(pres, nres) {
					t.Errorf("%s/%s/seed%d: results differ:\nprogram: %+v\nnative:  %+v",
						inst.name, mode, seed, pres, nres)
				}
				if !reflect.DeepEqual(pst, nst) {
					t.Errorf("%s/%s/seed%d: whiteboard stats differ:\nprogram: %+v\nnative:  %+v", inst.name, mode, seed, pst, nst)
				}
			}
		}
	}
}

func TestNoboardStepperMatchesProgramExactly(t *testing.T) {
	for _, inst := range diffInstances(t) {
		sa, sb := adjacentStarts(t, inst.g)
		delta := inst.g.MinDegree()
		for seed := uint64(1); seed <= 3; seed++ {
			for _, disableMeeting := range []bool{false, true} {
				cfg := sim.Config{
					Graph: inst.g, StartA: sa, StartB: sb,
					NeighborIDs: true,
					Seed:        seed, MaxRounds: 1 << 24,
					DisableMeeting: disableMeeting,
				}
				pst := &NoboardStats{}
				progA, progB := NoboardAgents(PracticalParams(), delta, pst)
				pres, perr := sim.RunSteppers(cfg, sim.NewProgramStepper(progA), sim.NewProgramStepper(progB))
				if perr != nil {
					t.Fatalf("%s/seed%d program: %v", inst.name, seed, perr)
				}
				nst := &NoboardStats{}
				stA, stB := NoboardSteppers(PracticalParams(), delta, nst)
				nres, nerr := sim.RunSteppers(cfg, stA, stB)
				if nerr != nil {
					t.Fatalf("%s/seed%d native: %v", inst.name, seed, nerr)
				}
				if !sameResult(pres, nres) {
					t.Errorf("%s/seed%d/dm=%v: results differ:\nprogram: %+v\nnative:  %+v",
						inst.name, seed, disableMeeting, pres, nres)
				}
				if !reflect.DeepEqual(pst, nst) {
					t.Errorf("%s/seed%d/dm=%v: noboard stats differ:\nprogram: %+v\nnative:  %+v",
						inst.name, seed, disableMeeting, pst, nst)
				}
			}
		}
	}
}

// haltStepper is the idle partner of the single-agent instruments: it
// halts at round 0.
type haltStepper struct{}

func (haltStepper) Init(*sim.StepContext)     {}
func (haltStepper) Next(*sim.View) sim.Action { return sim.Halt() }

// The harness instruments (Construct then halt, one Sample run, the
// oracle-T warm start) match their Program references exactly: full
// Result, and the stats or the SampleReport by DeepEqual.
func TestInstrumentSteppersMatchProgramsExactly(t *testing.T) {
	ghost := func(e *sim.Env) {}
	run := func(t *testing.T, name string, cfg sim.Config, pa, pb sim.Program, na, nb sim.Stepper, pOut, nOut any) {
		t.Helper()
		pres, perr := sim.RunSteppers(cfg, sim.NewProgramStepper(pa), sim.NewProgramStepper(pb))
		nres, nerr := sim.RunSteppers(cfg, na, nb)
		if perr != nil || nerr != nil {
			t.Fatalf("%s: program err %v, native err %v", name, perr, nerr)
		}
		if !sameResult(pres, nres) {
			t.Errorf("%s: results differ:\nprogram: %+v\nnative:  %+v", name, pres, nres)
		}
		if !reflect.DeepEqual(pOut, nOut) {
			t.Errorf("%s: diagnostics differ:\nprogram: %+v\nnative:  %+v", name, pOut, nOut)
		}
	}
	for _, inst := range diffInstances(t) {
		sa, sb := adjacentStarts(t, inst.g)
		delta := inst.g.MinDegree()
		for seed := uint64(1); seed <= 3; seed++ {
			solo := sim.Config{
				Graph: inst.g, StartA: sa, StartB: sb,
				NeighborIDs: true, Seed: seed, MaxRounds: 1 << 40, DisableMeeting: true,
			}
			for _, know := range []Knowledge{{Delta: delta}, {Doubling: true}} {
				pst, nst := &WhiteboardStats{}, &WhiteboardStats{}
				run(t, fmt.Sprintf("%s/construct/%+v/seed%d", inst.name, know, seed), solo,
					ConstructOnly(PracticalParams(), know, pst), ghost,
					ConstructOnlyStepper(PracticalParams(), know, nst), haltStepper{}, pst, nst)
			}
			prep, nrep := &SampleReport{}, &SampleReport{}
			run(t, fmt.Sprintf("%s/classify/seed%d", inst.name, seed), solo,
				SampleClassifier(PracticalParams(), delta, prep), ghost,
				SampleClassifierStepper(PracticalParams(), delta, nrep), haltStepper{}, prep, nrep)

			tset, via := DenseSetOracle(inst.g, sa)
			pair := sim.Config{
				Graph: inst.g, StartA: sa, StartB: sb,
				NeighborIDs: true, Whiteboards: true, Seed: seed, MaxRounds: 1 << 22,
			}
			na, nb := MainPhaseSteppers(tset, via)
			run(t, fmt.Sprintf("%s/mainphase/seed%d", inst.name, seed), pair,
				MainPhaseAgentA(tset, via), AgentB(), na, nb, nil, nil)
		}
	}
}

// A warm TrialContext (reused walker/agent-b scratch) must reproduce
// fresh-context runs bit for bit — the scratch-reuse contract of the
// native machines.
func TestNativeSteppersIdenticalOnWarmContext(t *testing.T) {
	rng := rand.New(rand.NewPCG(91, 92))
	g, err := graph.PlantedMinDegree(96, 30, rng)
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := adjacentStarts(t, g)
	for _, alg := range []string{"whiteboard", "noboard"} {
		cfg := sim.Config{
			Graph: g, StartA: sa, StartB: sb,
			NeighborIDs: true, Whiteboards: alg == "whiteboard",
			MaxRounds: 1 << 22,
		}
		build := func() (sim.Stepper, sim.Stepper) {
			if alg == "whiteboard" {
				return WhiteboardSteppers(PracticalParams(), Knowledge{Delta: g.MinDegree()}, nil)
			}
			return NoboardSteppers(PracticalParams(), g.MinDegree(), nil)
		}
		tc := sim.NewTrialContext()
		for seed := uint64(1); seed <= 4; seed++ {
			cfg.Seed = seed
			a1, b1 := build()
			warm, err := tc.RunSteppers(cfg, a1, b1)
			if err != nil {
				t.Fatalf("%s seed %d warm: %v", alg, seed, err)
			}
			a2, b2 := build()
			fresh, err := sim.RunSteppers(cfg, a2, b2)
			if err != nil {
				t.Fatalf("%s seed %d fresh: %v", alg, seed, err)
			}
			if !sameResult(warm, fresh) {
				t.Errorf("%s seed %d: warm context diverged:\nwarm:  %+v\nfresh: %+v", alg, seed, warm, fresh)
			}
		}
	}
}

// isolatedStartGraph builds a graph whose vertex 0 has degree 0 (the
// δ = 0 boundary) beside a small connected component.
func isolatedStartGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.FromAdjacency([]int64{0, 1, 2, 3}, [][]graph.Vertex{
		nil, {2, 3}, {1, 3}, {1, 2},
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// The satellite-2 boundary: degenerate inputs that violate the
// paper's δ ≥ 1 precondition must fail with an explicit error on both
// paths — never hang in a silent restart/sampling loop.
func TestDegenerateInputsFailExplicitlyOnBothPaths(t *testing.T) {
	iso := isolatedStartGraph(t)
	conn, err := graph.Complete(8)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		cfg     sim.Config
		prog    func() (sim.Program, sim.Program)
		native  func() (sim.Stepper, sim.Stepper)
		errWant string
	}{
		{
			name: "whiteboard doubling from degree-0 start",
			cfg: sim.Config{Graph: iso, StartA: 0, StartB: 1,
				NeighborIDs: true, Whiteboards: true, MaxRounds: 1 << 16},
			prog: func() (sim.Program, sim.Program) {
				return WhiteboardAgents(PracticalParams(), Knowledge{Doubling: true}, nil)
			},
			native: func() (sim.Stepper, sim.Stepper) {
				return WhiteboardSteppers(PracticalParams(), Knowledge{Doubling: true}, nil)
			},
			errWant: "degree 0",
		},
		{
			name: "whiteboard declared δ ≥ 1 but degree-0 start",
			cfg: sim.Config{Graph: iso, StartA: 0, StartB: 1,
				NeighborIDs: true, Whiteboards: true, MaxRounds: 1 << 16},
			prog: func() (sim.Program, sim.Program) {
				return WhiteboardAgents(PracticalParams(), Knowledge{Delta: 2}, nil)
			},
			native: func() (sim.Stepper, sim.Stepper) {
				return WhiteboardSteppers(PracticalParams(), Knowledge{Delta: 2}, nil)
			},
			errWant: "degree 0",
		},
		{
			name: "whiteboard declared δ = 0 without doubling",
			cfg: sim.Config{Graph: conn, StartA: 0, StartB: 1,
				NeighborIDs: true, Whiteboards: true, MaxRounds: 1 << 16},
			prog: func() (sim.Program, sim.Program) {
				return WhiteboardAgents(PracticalParams(), Knowledge{Delta: 0}, nil)
			},
			native: func() (sim.Stepper, sim.Stepper) {
				return WhiteboardSteppers(PracticalParams(), Knowledge{Delta: 0}, nil)
			},
			errWant: "δ ≥ 1",
		},
		{
			name: "noboard with δ = 0",
			cfg: sim.Config{Graph: conn, StartA: 0, StartB: 1,
				NeighborIDs: true, MaxRounds: 1 << 16},
			prog: func() (sim.Program, sim.Program) {
				return NoboardAgents(PracticalParams(), 0, nil)
			},
			native: func() (sim.Stepper, sim.Stepper) {
				return NoboardSteppers(PracticalParams(), 0, nil)
			},
			errWant: "δ ≥ 1",
		},
	}
	for _, tc := range cases {
		pa, pb := tc.prog()
		_, perr := sim.Run(tc.cfg, pa, pb)
		if perr == nil || !strings.Contains(perr.Error(), tc.errWant) {
			t.Errorf("%s: program path error = %v, want mention of %q", tc.name, perr, tc.errWant)
		}
		na, nb := tc.native()
		_, nerr := sim.RunSteppers(tc.cfg, na, nb)
		if nerr == nil || !strings.Contains(nerr.Error(), tc.errWant) {
			t.Errorf("%s: native path error = %v, want mention of %q", tc.name, nerr, tc.errWant)
		}
	}
}

// The schedule derivation itself must reject precondition violations
// and stay exactly agent-independent at the boundaries.
func TestNoboardScheduleBoundaries(t *testing.T) {
	p := PracticalParams()
	if _, err := newNoboardSchedule(p, 1024, 0); err == nil {
		t.Error("δ = 0 schedule derived without error")
	}
	if _, err := newNoboardSchedule(p, 1024, -3); err == nil {
		t.Error("δ < 0 schedule derived without error")
	}
	if _, err := newNoboardSchedule(p, 0, 4); err == nil {
		t.Error("n' = 0 schedule derived without error")
	}
	// n' = 1, δ = 1: the extreme valid boundary — well-formed, floors
	// applied, and identical however many times it is derived (the two
	// agents must agree exactly).
	s1, err := newNoboardSchedule(p, 1, 1)
	if err != nil {
		t.Fatalf("n'=1, δ=1: %v", err)
	}
	s2, err := newNoboardSchedule(p, 1, 1)
	if err != nil || s1 != s2 {
		t.Fatalf("schedule derivation diverged between agents: %+v vs %+v (err=%v)", s1, s2, err)
	}
	if s1.beta < 1 || s1.residency < 8 || s1.phaseLen != s1.residency*s1.residency || s1.phases < 1 || s1.tPrime < 1 {
		t.Errorf("n'=1, δ=1 schedule malformed: %+v", s1)
	}
	// The doubling-estimate helpers behind Construct's restart loop.
	if _, err := halvedDeltaEst(1); err == nil {
		t.Error("restart at δ' = 1 must be an explicit error, not an infinite loop")
	}
	if next, err := halvedDeltaEst(8); err != nil || next != 4 {
		t.Errorf("halvedDeltaEst(8) = (%v, %v), want (4, nil)", next, err)
	}
	if est := initialDeltaEst(Knowledge{Doubling: true}, 1); est != 1 {
		t.Errorf("doubling initial estimate at degree 1 = %v, want clamped 1", est)
	}
}
