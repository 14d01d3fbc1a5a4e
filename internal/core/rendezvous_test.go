package core

import (
	"math/rand/v2"
	"testing"

	"fnr/internal/graph"
	"fnr/internal/sim"
)

// idleStepper waits at its start vertex forever.
type idleStepper struct{}

func (idleStepper) Init(*sim.StepContext)     {}
func (idleStepper) Next(*sim.View) sim.Action { return sim.StayFor(1 << 20) }

// adjacentStarts returns a deterministic adjacent pair of vertices.
func adjacentStarts(t *testing.T, g *graph.Graph) (graph.Vertex, graph.Vertex) {
	t.Helper()
	pairs := graph.PairsAtDistance(g, 1, 1)
	if len(pairs) == 0 {
		t.Fatal("graph has no edges")
	}
	return pairs[0][0], pairs[0][1]
}

func TestWhiteboardRendezvousOnComplete(t *testing.T) {
	g, err := graph.Complete(64)
	if err != nil {
		t.Fatal(err)
	}
	a, b := adjacentStarts(t, g)
	for seed := uint64(0); seed < 5; seed++ {
		progA, progB := WhiteboardSteppers(PracticalParams(), Knowledge{Delta: g.MinDegree()}, nil)
		res, err := sim.RunSteppers(sim.Config{
			Graph: g, StartA: a, StartB: b,
			NeighborIDs: true, Whiteboards: true,
			Seed: seed, MaxRounds: 1 << 40,
		}, progA, progB)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Met {
			t.Fatalf("seed %d: no rendezvous", seed)
		}
	}
}

func TestWhiteboardRendezvousOnPlanted(t *testing.T) {
	rng := rand.New(rand.NewPCG(100, 200))
	g, err := graph.PlantedMinDegree(256, 64, rng)
	if err != nil {
		t.Fatal(err)
	}
	a, b := adjacentStarts(t, g)
	for seed := uint64(0); seed < 3; seed++ {
		st := &WhiteboardStats{}
		progA, progB := WhiteboardSteppers(PracticalParams(), Knowledge{Delta: g.MinDegree()}, st)
		res, err := sim.RunSteppers(sim.Config{
			Graph: g, StartA: a, StartB: b,
			NeighborIDs: true, Whiteboards: true,
			Seed: seed, MaxRounds: 1 << 40,
		}, progA, progB)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Met {
			t.Fatalf("seed %d: no rendezvous", seed)
		}
		if res.MeetRound <= st.ConstructRounds {
			t.Errorf("seed %d: met at %d before construct finished at %d",
				seed, res.MeetRound, st.ConstructRounds)
		}
	}
}

func TestWhiteboardRendezvousWithDoubling(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	g, err := graph.PlantedMinDegree(200, 60, rng)
	if err != nil {
		t.Fatal(err)
	}
	a, b := adjacentStarts(t, g)
	st := &WhiteboardStats{}
	progA, progB := WhiteboardSteppers(PracticalParams(), Knowledge{Doubling: true}, st)
	res, err := sim.RunSteppers(sim.Config{
		Graph: g, StartA: a, StartB: b,
		NeighborIDs: true, Whiteboards: true,
		Seed: 7, MaxRounds: 1 << 40,
	}, progA, progB)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Fatal("no rendezvous under doubling estimation")
	}
}

// The whiteboard algorithm must also work when vertex IDs are permuted
// (decorrelated from indices) and sparse (n' > n).
func TestWhiteboardRendezvousSparseIDs(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	g0, err := graph.PlantedMinDegree(128, 40, rng)
	if err != nil {
		t.Fatal(err)
	}
	b := graph.Rebuild(g0)
	if err := b.SparseIDs(16, rng); err != nil {
		t.Fatal(err)
	}
	g := b.MustBuild()
	a, bb := adjacentStarts(t, g)
	progA, progB := WhiteboardSteppers(PracticalParams(), Knowledge{Delta: g.MinDegree()}, nil)
	res, err := sim.RunSteppers(sim.Config{
		Graph: g, StartA: a, StartB: bb,
		NeighborIDs: true, Whiteboards: true,
		Seed: 3, MaxRounds: 1 << 40,
	}, progA, progB)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Fatal("no rendezvous with sparse IDs")
	}
}

func TestAgentBWritesMarks(t *testing.T) {
	g, err := graph.Complete(16)
	if err != nil {
		t.Fatal(err)
	}
	_, markerB := WhiteboardSteppers(PracticalParams(), Knowledge{Delta: g.MinDegree()}, nil)
	res, err := sim.RunSteppers(sim.Config{
		Graph: g, StartA: 5, StartB: 2,
		NeighborIDs: true, Whiteboards: true,
		Seed: 1, MaxRounds: 500, DisableMeeting: true,
	}, idleStepper{}, markerB)
	if err != nil {
		t.Fatal(err)
	}
	if res.Writes == 0 {
		t.Fatal("agent b never wrote a mark")
	}
	// B alternates move-mark-return; in 500 rounds it must write often.
	if res.Writes < 100 {
		t.Fatalf("agent b wrote only %d marks in 500 rounds", res.Writes)
	}
}

func TestSampleClassifierSeparation(t *testing.T) {
	// Star with 64 leaves around vertex 0; leaves 1..32 additionally
	// form a clique ("heavy": |N+(leaf) ∩ N+(0)| = 33), leaves 33..64
	// have only the center ("light": |N+(leaf) ∩ N+(0)| = 2).
	// With delta = 64 (α = 8): heavy leaves exceed 4α = 32, light
	// leaves are below α = 8, so Lemma 2 predicts exact separation.
	b := graph.NewBuilder(65)
	for v := 1; v <= 64; v++ {
		b.MustAddEdge(0, graph.Vertex(v))
	}
	for u := 1; u <= 32; u++ {
		for v := u + 1; v <= 32; v++ {
			b.MustAddEdge(graph.Vertex(u), graph.Vertex(v))
		}
	}
	g := b.MustBuild()
	for seed := uint64(0); seed < 3; seed++ {
		rep := &SampleReport{}
		_, err := sim.RunSteppers(sim.Config{
			Graph: g, StartA: 0, StartB: 40,
			NeighborIDs: true, Seed: seed, MaxRounds: 1 << 40,
			DisableMeeting: true,
		}, SampleClassifierStepper(PracticalParams(), 64, rep), haltStepper{})
		if err != nil {
			t.Fatal(err)
		}
		heavy := make(map[int64]bool, len(rep.Heavy))
		for _, id := range rep.Heavy {
			heavy[id] = true
		}
		for v := int64(1); v <= 32; v++ {
			if !heavy[v] {
				t.Errorf("seed %d: clique leaf %d classified light", seed, v)
			}
		}
		for v := int64(33); v <= 64; v++ {
			if heavy[v] {
				t.Errorf("seed %d: isolated leaf %d classified heavy", seed, v)
			}
		}
		// The center itself is 65-heavy.
		if !heavy[0] {
			t.Errorf("seed %d: center classified light", seed)
		}
	}
}

func TestDenseSetOracleIsDense(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 20))
	g, err := graph.PlantedMinDegree(200, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, v0 := range []graph.Vertex{0, 7, 199} {
		tset, via := DenseSetOracle(g, v0)
		// The oracle set is (v0, δ+1, 2)-dense: every u ∈ N+(v0) has
		// its whole closed neighborhood inside T.
		if err := VerifyDense(g, v0, tset, float64(g.MinDegree()+1), 2); err != nil {
			t.Errorf("oracle set from %d not dense: %v", v0, err)
		}
		// Via entries must be usable: each maps to v0 itself, a
		// neighbor of v0, or the member directly.
		for id, through := range via {
			tv, ok := g.VertexByID(through)
			if !ok {
				t.Fatalf("via[%d] = %d references unknown vertex", id, through)
			}
			if through != g.ID(v0) && tv != v0 && !g.HasEdge(v0, tv) && through != id {
				t.Errorf("via[%d] = %d is not reachable in one hop from %d", id, through, g.ID(v0))
			}
		}
	}
}

func TestMainPhaseAgentMeetsOnPlanted(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 24))
	g, err := graph.PlantedMinDegree(200, 64, rng)
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := adjacentStarts(t, g)
	tset, via := DenseSetOracle(g, sa)
	for seed := uint64(0); seed < 3; seed++ {
		a, b := MainPhaseSteppers(tset, via)
		res, err := sim.RunSteppers(sim.Config{
			Graph: g, StartA: sa, StartB: sb,
			NeighborIDs: true, Whiteboards: true,
			Seed: seed, MaxRounds: 1 << 40,
		}, a, b)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Met {
			t.Fatalf("seed %d: warm-start main phase never met", seed)
		}
	}
}

func TestNoboardScheduleFloors(t *testing.T) {
	p := PracticalParams()
	// Degenerate δ = 1: the schedule must stay well-formed.
	s, err := newNoboardSchedule(p, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.beta < 1 || s.residency < 8 || s.phaseLen != s.residency*s.residency {
		t.Fatalf("degenerate schedule malformed: %+v", s)
	}
	if s.prob != 1 {
		t.Fatalf("Φ probability %v, want saturated at 1 for δ=1", s.prob)
	}
	if s.phases < 1 {
		t.Fatalf("phases = %d", s.phases)
	}
}

// The verbatim paper constants must actually execute, not just parse:
// run both algorithms end-to-end with PaperParams on a small instance.
// (The constants are huge, so keep n tiny; this is a faithfulness
// smoke test, not a benchmark.)
func TestPaperParamsEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewPCG(61, 62))
	g, err := graph.PlantedMinDegree(64, 32, rng)
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := adjacentStarts(t, g)
	progA, progB := WhiteboardSteppers(PaperParams(), Knowledge{Delta: g.MinDegree()}, nil)
	res, err := sim.RunSteppers(sim.Config{
		Graph: g, StartA: sa, StartB: sb,
		NeighborIDs: true, Whiteboards: true,
		Seed: 1, MaxRounds: 1 << 40,
	}, progA, progB)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Fatal("whiteboard algorithm with paper constants never met")
	}
	na, nb := NoboardSteppers(PaperParams(), g.MinDegree(), nil)
	res, err = sim.RunSteppers(sim.Config{
		Graph: g, StartA: sa, StartB: sb,
		NeighborIDs: true, Seed: 1, MaxRounds: 1 << 40,
	}, na, nb)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Fatal("no-whiteboard algorithm with paper constants never met")
	}
}
