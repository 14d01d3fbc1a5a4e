package core

import (
	"math/rand/v2"
	"testing"

	"fnr/internal/graph"
)

// memoHarness drives one walkerScratch through Sample observations
// the way the steppers do, and checks the N+(home) counters against a
// brute-force recount after every observation.
type memoHarness struct {
	t  *testing.T
	s  *walkerScratch
	p  Params
	w  walkerCore
	g  *graph.Graph
	hv graph.Vertex
	// want[u] counts the observations whose closed neighborhood held
	// the home-neighborhood member with ID u.
	want map[int64]int32
}

// arm starts a walker core at home on g under the given graph stamp,
// then a fresh Sample run (counters zeroed).
func (h *memoHarness) arm(g *graph.Graph, stamp uint64, home graph.Vertex) {
	h.g, h.hv = g, home
	h.w = newWalkerCore(h.s, stamp, g.NPrime(), &h.p, float64(g.MinDegree()), false, g.ID(home), g.IDsOfNeighbors(home, nil))
	h.w.sampleReset()
	h.want = map[int64]int32{}
}

// observe credits a visit to v (a home draw when v is home) and
// checks every counter at N+(home).
func (h *memoHarness) observe(v graph.Vertex) {
	h.t.Helper()
	if v == h.hv {
		h.w.sampleObserveHome()
	} else {
		h.w.sampleObserve(h.g.ID(v), h.g.IDsOfNeighbors(v, nil))
	}
	for _, u := range h.s.npHomeL {
		uv, _ := h.g.VertexByID(u)
		if uv == v || h.g.HasEdge(uv, v) {
			h.want[u]++
		}
	}
	for _, u := range h.s.npHomeL {
		if got := h.s.counts[u]; got != h.want[u] {
			h.t.Fatalf("home %d, after visiting %d: counter of %d = %d, brute force %d", h.hv, v, u, got, h.want[u])
		}
	}
}

// observeWalk visits k vertices drawn from N+(home) and its
// neighbors' neighbors — the vertices Sample draws — with repeats.
func (h *memoHarness) observeWalk(rng *rand.Rand, k int) {
	h.t.Helper()
	for range k {
		v := h.hv
		for hop := rng.IntN(3); hop > 0 && h.g.Degree(v) > 0; hop-- {
			v = h.g.Neighbor(v, rng.IntN(h.g.Degree(v)))
		}
		h.observe(v)
	}
}

// TestSampleOverlapMemoCountsExactly pins the overlap memo behind
// sampleObserve: whatever the visit sequence — repeated vertices,
// home draws, a new home or a new graph on the same scratch, stamp 0,
// and visits past the memo's size cap — the counters at N+(home)
// equal a brute-force recount of |N+(t) ∩ N+(home)| contributions.
func TestSampleOverlapMemoCountsExactly(t *testing.T) {
	g1, err := graph.PlantedMinDegree(256, 24, rand.New(rand.NewPCG(3, 4)))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := graph.PlantedMinDegree(256, 24, rand.New(rand.NewPCG(5, 6)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(7, 8))
	h := &memoHarness{t: t, s: &walkerScratch{}, p: PracticalParams()}

	t.Run("repeats and home draws", func(t *testing.T) {
		h.t = t
		h.arm(g1, g1.Stamp(), 10)
		h.observeWalk(rng, 400)
		if len(h.s.ov) == 0 {
			t.Fatal("no overlap lists were memoized")
		}
	})
	t.Run("next Sample run keeps the memo", func(t *testing.T) {
		h.t = t
		before := len(h.s.ov)
		h.arm(g1, g1.Stamp(), 10)
		for _, u := range h.s.homeNb {
			uv, _ := g1.VertexByID(u)
			h.observe(uv)
		}
		if len(h.s.ov) < before {
			t.Fatalf("memo shrank from %d to %d words under the same key", before, len(h.s.ov))
		}
	})
	t.Run("new home", func(t *testing.T) {
		h.t = t
		h.arm(g1, g1.Stamp(), 11)
		h.observeWalk(rng, 400)
	})
	t.Run("new graph, same home ID", func(t *testing.T) {
		h.t = t
		h.arm(g1, g1.Stamp(), 12)
		h.observeWalk(rng, 400)
		h.arm(g2, g2.Stamp(), 12)
		h.observeWalk(rng, 400)
	})
	t.Run("stamp 0", func(t *testing.T) {
		h.t = t
		h.arm(g1, 0, 13)
		h.observeWalk(rng, 200)
		h.arm(g2, 0, 13)
		h.observeWalk(rng, 200)
	})
	t.Run("over the cap", func(t *testing.T) {
		h.t = t
		k, err := graph.Complete(256)
		if err != nil {
			t.Fatal(err)
		}
		h.arm(k, k.Stamp(), 0)
		for v := range graph.Vertex(64) {
			h.observe(v)
			h.observe(v)
		}
		limit := overlapMemoWords * int(k.NPrime())
		if cap(h.s.ov) > limit {
			t.Errorf("memo holds %d words, cap %d", cap(h.s.ov), limit)
		}
		if _, ok := h.s.overlap(k.ID(63)); ok {
			t.Error("Complete(256) memoized 63 vertices: the cap was never reached")
		}
	})
}

// TestSampleOverlapMemoWarmAllocs pins that a warm memo serves repeat
// observations without allocating.
func TestSampleOverlapMemoWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	g, err := graph.PlantedMinDegree(256, 24, rand.New(rand.NewPCG(3, 4)))
	if err != nil {
		t.Fatal(err)
	}
	h := &memoHarness{t: t, s: &walkerScratch{}, p: PracticalParams()}
	h.arm(g, g.Stamp(), 10)
	// The agent-a stepper's form: a memo hit reads no neighbor list,
	// a miss copies it into reused scratch first.
	var nbs []int64
	visit := func() {
		for v := range graph.Vertex(g.N()) {
			if !h.w.sampleObserveMemo(g.ID(v)) {
				nbs = g.IDsOfNeighbors(v, nbs[:0])
				h.w.sampleObserveList(g.ID(v), nbs)
			}
		}
	}
	visit()
	homeNb := g.IDsOfNeighbors(10, nil)
	if allocs := testing.AllocsPerRun(5, func() {
		h.w = newWalkerCore(h.s, g.Stamp(), g.NPrime(), &h.p, float64(g.MinDegree()), false, g.ID(10), homeNb)
		h.w.sampleReset()
		visit()
	}); allocs != 0 {
		t.Errorf("warm memo allocates %.1f times per Sample run, want 0", allocs)
	}
}
