package core

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"

	"fnr/internal/graph"
	"fnr/internal/sim"
)

// runConstructOnly builds the graph's dense set from startA and returns
// the stats. Agent b just waits.
func runConstructOnly(t *testing.T, g *graph.Graph, start graph.Vertex, know Knowledge, seed uint64) *WhiteboardStats {
	t.Helper()
	st := &WhiteboardStats{}
	other := graph.Vertex(0)
	if start == other {
		other = 1
	}
	_, err := sim.RunSteppers(sim.Config{
		Graph:          g,
		StartA:         start,
		StartB:         other,
		NeighborIDs:    true,
		Seed:           seed,
		MaxRounds:      1 << 40,
		DisableMeeting: true,
	}, ConstructOnlyStepper(PracticalParams(), know, st), haltStepper{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return st
}

func TestConstructDenseOnComplete(t *testing.T) {
	g, err := graph.Complete(64)
	if err != nil {
		t.Fatal(err)
	}
	delta := g.MinDegree()
	st := runConstructOnly(t, g, 0, Knowledge{Delta: delta}, 1)
	if err := VerifyDense(g, 0, st.T, float64(delta)/8, 2); err != nil {
		t.Fatalf("dense verification: %v", err)
	}
	// On a complete graph N+(v0) = V, so T must be all of V.
	if st.TSize != g.N() {
		t.Fatalf("TSize = %d, want %d", st.TSize, g.N())
	}
}

func TestConstructDenseOnPlanted(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	g, err := graph.PlantedMinDegree(256, 64, rng)
	if err != nil {
		t.Fatal(err)
	}
	delta := g.MinDegree()
	for seed := uint64(0); seed < 3; seed++ {
		st := runConstructOnly(t, g, 3, Knowledge{Delta: delta}, seed)
		if err := VerifyDense(g, 3, st.T, float64(delta)/8, 2); err != nil {
			t.Errorf("seed %d: dense verification: %v", seed, err)
		}
		// Lemma 6: O(n/δ) iterations. With n/δ = 4, a generous
		// constant-factor cap still catches regressions.
		if st.Iterations > 16*g.N()/delta+16 {
			t.Errorf("seed %d: %d iterations for n/δ = %d", seed, st.Iterations, g.N()/delta)
		}
		if st.StrictRuns > 20 {
			t.Errorf("seed %d: %d strict runs, want O(log n)", seed, st.StrictRuns)
		}
	}
}

func TestConstructWithDoubling(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	g, err := graph.PlantedMinDegree(200, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	st := runConstructOnly(t, g, 0, Knowledge{Doubling: true}, 2)
	// The final estimate must not exceed the true minimum degree by
	// more than the initial halving allows, and the produced set must
	// be dense for the estimate actually used.
	if st.DeltaUsed <= 0 {
		t.Fatalf("DeltaUsed = %v", st.DeltaUsed)
	}
	if err := VerifyDense(g, 0, st.T, st.DeltaUsed/8, 2); err != nil {
		t.Fatalf("dense verification at δ'=%v: %v", st.DeltaUsed, err)
	}
}

func TestDoublingRestarts(t *testing.T) {
	// K42 plus one pendant vertex on the start vertex: the initial
	// estimate δ' = deg(home)/2 = 21 is violated by the pendant
	// (degree 1), forcing restarts until δ' ≤ 1.
	b := graph.NewBuilder(43)
	for u := 0; u < 42; u++ {
		for v := u + 1; v < 42; v++ {
			b.MustAddEdge(graph.Vertex(u), graph.Vertex(v))
		}
	}
	b.MustAddEdge(0, 42)
	g := b.MustBuild()
	st := runConstructOnly(t, g, 0, Knowledge{Doubling: true}, 3)
	if st.Restarts == 0 {
		t.Fatal("expected doubling restarts, got none")
	}
	if st.DeltaUsed > 1 {
		t.Fatalf("DeltaUsed = %v, want ≤ 1 (pendant has degree 1)", st.DeltaUsed)
	}
	if err := VerifyDense(g, 0, st.T, st.DeltaUsed/8, 2); err != nil {
		t.Fatalf("dense verification: %v", err)
	}
}

func TestVerifyDenseRejects(t *testing.T) {
	g, err := graph.Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	// Missing start vertex.
	if err := VerifyDense(g, 0, []int64{1, 2}, 1, 2); err == nil {
		t.Error("accepted T without start vertex")
	}
	// Too far: vertex 4 is at distance 4 from 0 on C8.
	if err := VerifyDense(g, 0, []int64{0, 4}, 0.5, 2); err == nil {
		t.Error("accepted T with far vertex")
	}
	// Not heavy enough: alpha too large for the ring.
	if err := VerifyDense(g, 0, []int64{0, 1, 7}, 3.5, 2); err == nil {
		t.Error("accepted T violating heaviness")
	}
	// Unknown ID.
	if err := VerifyDense(g, 0, []int64{0, 999}, 1, 2); err == nil {
		t.Error("accepted T with unknown ID")
	}
	// A valid dense set for the ring: N+(N+(0)) with alpha ≤ 3.
	if err := VerifyDense(g, 0, []int64{0, 1, 7, 2, 6}, 3, 2); err != nil {
		t.Errorf("rejected valid dense set: %v", err)
	}
}

func TestHeaviness(t *testing.T) {
	g, err := graph.Complete(5)
	if err != nil {
		t.Fatal(err)
	}
	tset := map[int64]struct{}{0: {}, 1: {}, 2: {}}
	if h := Heaviness(g, 4, tset); h != 3 {
		t.Fatalf("Heaviness = %d, want 3", h)
	}
	if h := Heaviness(g, 1, tset); h != 3 {
		t.Fatalf("Heaviness = %d, want 3", h)
	}
}

// The paper claims agents need O(n log n) bits ⇒ O(n) words of memory.
// The walker's state must stay linear in n (plus one neighborhood
// buffer of size ≤ ∆), not Θ(δ·∆) as an unbounded visit cache would be.
func TestConstructMemoryLinear(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 18))
	g, err := graph.PlantedMinDegree(512, 128, rng)
	if err != nil {
		t.Fatal(err)
	}
	st := runConstructOnly(t, g, 0, Knowledge{Delta: g.MinDegree()}, 4)
	if st.MemoryWords == 0 {
		t.Fatal("MemoryWords not recorded")
	}
	budget := 4*g.N() + 2*g.MaxDegree()
	if st.MemoryWords > budget {
		t.Fatalf("agent memory %d words exceeds linear budget %d (n=%d, ∆=%d)",
			st.MemoryWords, budget, g.N(), g.MaxDegree())
	}
}

func TestPaperParamsFaithful(t *testing.T) {
	p := PaperParams()
	// The printed constants of Algorithms 2–4.
	if p.SampleMult != 96 || p.HeavyThresholdMult != 150 || p.ProbeMult != 4 ||
		p.AlphaDen != 8 || p.LightDen != 2 || p.C2 != 18 || p.PhiMult != 4 || p.WaitMult != 4 {
		t.Fatalf("PaperParams drifted: %+v", p)
	}
	if p.StrictOnly {
		t.Fatal("PaperParams must not enable the ablation flag")
	}
	// The threshold must sit strictly between the α-light and 4α-heavy
	// expectations for BOTH presets — the separation Lemma 2 needs.
	for _, params := range []Params{p, PracticalParams()} {
		if !(params.SampleMult < params.HeavyThresholdMult) {
			t.Fatalf("threshold below the α-light expectation: %+v", params)
		}
		if !(params.HeavyThresholdMult < 4*params.SampleMult) {
			t.Fatalf("threshold above the 4α-heavy expectation: %+v", params)
		}
	}
}

func TestLnOfFloors(t *testing.T) {
	if lnOf(0) != 1 || lnOf(2) != 1 {
		t.Fatal("lnOf must clamp tiny ID spaces to 1")
	}
	if lnOf(1000) <= 1 {
		t.Fatal("lnOf(1000) should exceed the floor")
	}
}

// Agent a's navigation must fail the run, before any move, on a
// target it has no route to: a set member without a via entry, or a
// via hop that is not adjacent to home. The single-entry neighborhood
// cache answers only for home and the last visited candidate.
func TestWalkerNavigationErrors(t *testing.T) {
	g, err := graph.Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{
		Graph: g, StartA: 0, StartB: 1,
		NeighborIDs: true, Whiteboards: true, MaxRounds: 100, DisableMeeting: true,
	}
	for _, tc := range []struct {
		name    string
		t       []int64
		via     map[int64]int64
		errWant string
	}{
		{"missing via", []int64{0, 999}, map[int64]int64{0: 0}, "no via entry"},
		{"via not adjacent", []int64{4}, map[int64]int64{4: 4}, "no visible neighbor with ID 4"},
	} {
		a, b := MainPhaseSteppers(tc.t, tc.via)
		_, err := sim.RunSteppers(cfg, a, b)
		if err == nil || !strings.Contains(err.Error(), tc.errWant) {
			t.Errorf("%s: error = %v, want mention of %q", tc.name, err, tc.errWant)
		}
	}

	params := PracticalParams()
	w := newWalkerCore(&walkerScratch{}, 0, 8, &params, 1, false, 0, []int64{1, 7})
	w.learn(w.home, w.s.homeNb)
	if _, ok := w.viaOf(999); ok {
		t.Error("via entry for a never-learned vertex")
	}
	if nbs, ok := w.cachedNeighborhood(0); !ok || len(nbs) != 2 {
		t.Errorf("home neighborhood not cached: %v %v", nbs, ok)
	}
	w.noteLastSeen(1, []int64{0, 2})
	if _, ok := w.cachedNeighborhood(1); !ok {
		t.Error("lastSeen cache empty after a visit")
	}
	if _, ok := w.cachedNeighborhood(12345); ok {
		t.Error("cache hit for never-visited vertex")
	}
}

// Property: across random graphs and seeds, Construct's output always
// satisfies the (a, δ/8, 2)-dense definition verified against the
// ground truth.
func TestConstructDenseProperty(t *testing.T) {
	check := func(seed uint64, nRaw, startRaw uint8) bool {
		n := 64 + int(nRaw)%128
		d := int(math.Sqrt(float64(n))) + 4 + int(seed%16) // δ ≥ √n
		if d >= n {
			d = n - 1
		}
		rng := rand.New(rand.NewPCG(seed, 7))
		g, err := graph.PlantedMinDegree(n, d, rng)
		if err != nil {
			return false
		}
		start := graph.Vertex(int(startRaw) % n)
		other := graph.Vertex(0)
		if start == other {
			other = 1
		}
		st := &WhiteboardStats{}
		_, err = sim.RunSteppers(sim.Config{
			Graph: g, StartA: start, StartB: other,
			NeighborIDs: true, Seed: seed, MaxRounds: 1 << 40, DisableMeeting: true,
		}, ConstructOnlyStepper(PracticalParams(), Knowledge{Delta: g.MinDegree()}, st), haltStepper{})
		if err != nil {
			return false
		}
		return VerifyDense(g, start, st.T, float64(g.MinDegree())/8, 2) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
