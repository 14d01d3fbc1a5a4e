package graph

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// cycleSequential is the reference implementation AddCycle must match
// byte-for-byte: n sequential MustAddEdge calls.
func cycleSequential(b *Builder, order []int) {
	n := len(order)
	for i := 0; i < n; i++ {
		b.MustAddEdge(Vertex(order[i]), Vertex(order[(i+1)%n]))
	}
}

// TestAddCycleMatchesSequential pins the bulk cycle fill against the
// sequential edge loop: identical graphs (port order included) and
// identical membership state — edges added afterwards must land, and
// duplicates of cycle edges must still be caught.
func TestAddCycleMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 42))
	orders := [][]int{
		{0, 1, 2},
		{2, 0, 1, 3},
		rng.Perm(97),
		rng.Perm(1024),
		rng.Perm(5000), // > one parallelBlocks block
	}
	for _, order := range orders {
		n := len(order)
		bulk, seq := NewBuilder(n), NewBuilder(n)
		if err := bulk.AddCycle(order); err != nil {
			t.Fatalf("AddCycle(n=%d): %v", n, err)
		}
		cycleSequential(seq, order)
		if bulk.M() != seq.M() {
			t.Fatalf("n=%d: bulk %d edges, sequential %d", n, bulk.M(), seq.M())
		}
		// The membership state must behave identically: cycle edges are
		// duplicates, and a fresh chord lands in the same port slots.
		if err := bulk.AddEdge(Vertex(order[0]), Vertex(order[1])); err == nil {
			t.Fatalf("n=%d: AddCycle did not register edge %d-%d", n, order[0], order[1])
		}
		if n > 3 {
			u, w := Vertex(order[0]), Vertex(order[2])
			if err := bulk.AddEdge(u, w); err != nil {
				t.Fatalf("n=%d: chord rejected after AddCycle: %v", n, err)
			}
			seq.MustAddEdge(u, w)
		}
		g, err := bulk.Build()
		if err != nil {
			t.Fatal(err)
		}
		h, err := seq.Build()
		if err != nil {
			t.Fatal(err)
		}
		if !g.Equal(h) || !h.Equal(g) {
			t.Fatalf("n=%d: bulk and sequential cycles differ", n)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// TestAddCycleRejectsBadInput covers the argument contract.
func TestAddCycleRejectsBadInput(t *testing.T) {
	if err := NewBuilder(2).AddCycle([]int{0, 1}); err == nil {
		t.Error("accepted n=2")
	}
	if err := NewBuilder(4).AddCycle([]int{0, 1, 2}); err == nil {
		t.Error("accepted a short order")
	}
	if err := NewBuilder(4).AddCycle([]int{0, 1, 2, 2}); err == nil {
		t.Error("accepted a non-permutation")
	}
	if err := NewBuilder(4).AddCycle([]int{0, 1, 2, 4}); err == nil {
		t.Error("accepted an out-of-range entry")
	}
	b := NewBuilder(4)
	b.MustAddEdge(0, 1)
	if err := b.AddCycle([]int{0, 1, 2, 3}); err == nil {
		t.Error("accepted a non-empty builder")
	}
	// After Reset the builder is empty again and the cycle must land.
	b.Reset()
	if err := b.AddCycle([]int{0, 1, 2, 3}); err != nil {
		t.Errorf("rejected a reset builder: %v", err)
	}
}

// TestPlantedMinDegreeProgress pins the observer variant: identical
// topology to the plain call, and a monotone edge count ending at M.
func TestPlantedMinDegreeProgress(t *testing.T) {
	g, err := PlantedMinDegree(500, 19, rand.New(rand.NewPCG(7, 0xbe7c4)))
	if err != nil {
		t.Fatal(err)
	}
	calls, last := 0, -1
	h, err := PlantedMinDegreeProgress(500, 19, rand.New(rand.NewPCG(7, 0xbe7c4)), func(done, expected int) {
		calls++
		if done < last {
			t.Fatalf("progress went backwards: %d after %d", done, last)
		}
		last = done
		if expected != max(500, 500*19/2) {
			t.Fatalf("expected estimate %d", expected)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(h) {
		t.Fatal("progress observer changed the topology")
	}
	if calls < 2 || last != h.M() {
		t.Fatalf("progress saw %d calls ending at %d (M=%d)", calls, last, h.M())
	}
}

// sameDerived reports the first derived field in which g and h differ
// ("" when none): everything buildDerived computes beyond the
// port-order rows that topoHash and Equal already cover.
func sameDerived(g, h *Graph) string {
	switch {
	case !g.Equal(h):
		return "ids, offsets or port-order rows"
	case !slices.Equal(g.idPort, h.idPort):
		return "idPort"
	case !slices.Equal(g.idToV, h.idToV) || (g.idToV == nil) != (h.idToV == nil):
		return "idToV"
	case !slices.Equal(g.idKeys, h.idKeys) || !slices.Equal(g.idVerts, h.idVerts):
		return "idKeys/idVerts"
	case g.minDeg != h.minDeg || g.maxDeg != h.maxDeg || g.edges != h.edges:
		return "degree extremes or edge count"
	}
	return ""
}

// builderFrom loads g's edges into a fresh builder grown to the given
// degree hint (0 = no hint), so the membership sets start in list or
// bitset form as the hint dictates.
func builderFrom(g *Graph, grow int) *Builder {
	b := NewBuilder(g.N())
	b.Grow(grow)
	for v := Vertex(0); int(v) < g.N(); v++ {
		for _, w := range g.Adj(v) {
			if v < w {
				b.addKnownNew(v, w)
			}
		}
	}
	return b
}

// TestBuildMatchesBuildDerived is the differential test of the
// sort-free Builder.Build: every derived array must equal what the
// sorting path (FromAdjacency → buildDerived) computes from the same
// rows, under identity, permuted and sparse labelings, for builders
// whose membership sets are all lists, all bitsets, or mixed.
func TestBuildMatchesBuildDerived(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	mustGraph := func(g *Graph, err error) *Graph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	listy := mustGraph(PlantedMinDegree(300, 40, rng)) // degrees < bitsetDeg, tails past one flush
	dense := mustGraph(PlantedMinDegree(512, 70, rng))
	star := mustGraph(Star(200))
	builders := map[string]func() *Builder{
		"all list":   func() *Builder { return builderFrom(listy, 0) },
		"all bitset": func() *Builder { return builderFrom(dense, 72) },
		"mixed star": func() *Builder { return builderFrom(star, 0) },
		"after reset": func() *Builder {
			b := builderFrom(dense, 72)
			b.Reset()
			for v := Vertex(0); int(v) < dense.N(); v++ {
				for _, w := range listy.Adj(v % 300) {
					if u := w + 212; v < u && !b.HasEdge(v, u) {
						b.MustAddEdge(v, u)
					}
				}
			}
			return b
		},
	}
	labelings := map[string]func(b *Builder){
		"identity": func(*Builder) {},
		"permuted": func(b *Builder) { b.PermuteIDs(rng) },
		"sparse": func(b *Builder) {
			if err := b.SparseIDs(16, rng); err != nil {
				t.Fatal(err)
			}
		},
	}
	for bname, mk := range builders {
		for lname, label := range labelings {
			b := mk()
			label(b)
			g := mustGraph(b.Build())
			h := mustGraph(FromAdjacency(b.ids, b.adj, b.nPrime))
			if f := sameDerived(g, h); f != "" {
				t.Errorf("%s, %s IDs: Build and buildDerived differ in %s", bname, lname, f)
			}
			if err := g.Validate(); err != nil {
				t.Errorf("%s, %s IDs: %v", bname, lname, err)
			}
			if g.Stamp() == 0 || g.Stamp() == h.Stamp() {
				t.Errorf("%s, %s IDs: stamps %d and %d", bname, lname, g.Stamp(), h.Stamp())
			}
		}
	}
	// RandomRegular resets its builder before every attempt; at d ≥
	// bitsetDeg its Grow hint makes every vertex a bitset throughout.
	for _, d := range []int{8, 70} {
		g := mustGraph(RandomRegular(256, d, rng))
		rows := make([][]Vertex, g.N())
		ids := make([]int64, g.N())
		for v := range rows {
			rows[v], ids[v] = g.Adj(Vertex(v)), g.ID(Vertex(v))
		}
		h := mustGraph(FromAdjacency(ids, rows, g.NPrime()))
		if f := sameDerived(g, h); f != "" {
			t.Errorf("RandomRegular(256, %d): Build and buildDerived differ in %s", d, f)
		}
	}
}

// TestPlantedMinDegreeAllocs gates generation allocations at the
// graph-build shape to O(n): the adjacency row Grow sizes and the
// bitset it promotes per vertex, plus a constant number of flat CSR
// arrays. Growing sorted lists and sorting in Build cost ~7n.
func TestPlantedMinDegreeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const n, d = 2048, 64
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := PlantedMinDegree(n, d, rand.New(rand.NewPCG(1, 0xbe7c4))); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2*n+128 {
		t.Errorf("PlantedMinDegree(%d, %d) allocates %.0f times, want ≤ 2n+128 = %d", n, d, allocs, 2*n+128)
	}
}
