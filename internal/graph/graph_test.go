package graph

import (
	"bytes"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"
)

func mustComplete(t *testing.T, n int) *Graph {
	t.Helper()
	g, err := Complete(n)
	if err != nil {
		t.Fatalf("Complete(%d): %v", n, err)
	}
	return g
}

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(4)
	b.MustAddEdge(0, 1)
	b.MustAddEdge(1, 2)
	b.MustAddEdge(2, 3)
	b.MustAddEdge(3, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if g.N() != 4 || g.M() != 4 {
		t.Fatalf("got n=%d m=%d, want 4, 4", g.N(), g.M())
	}
	if g.MinDegree() != 2 || g.MaxDegree() != 2 {
		t.Fatalf("got δ=%d ∆=%d, want 2, 2", g.MinDegree(), g.MaxDegree())
	}
	if !g.HasEdge(0, 1) || g.HasEdge(0, 2) {
		t.Fatalf("adjacency wrong: HasEdge(0,1)=%v HasEdge(0,2)=%v", g.HasEdge(0, 1), g.HasEdge(0, 2))
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestBuilderRejectsBadEdges(t *testing.T) {
	tests := []struct {
		name string
		u, v Vertex
	}{
		{"self-loop", 1, 1},
		{"negative", -1, 0},
		{"out of range", 0, 9},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder(3)
			if err := b.AddEdge(tc.u, tc.v); err == nil {
				t.Fatalf("AddEdge(%d,%d) succeeded, want error", tc.u, tc.v)
			}
		})
	}
	b := NewBuilder(3)
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatalf("first AddEdge: %v", err)
	}
	if err := b.AddEdge(1, 0); err == nil {
		t.Fatal("duplicate AddEdge succeeded, want error")
	}
}

func TestPortNumbering(t *testing.T) {
	b := NewBuilder(4)
	// Port order at vertex 0 should follow insertion order: 2, 1, 3.
	b.MustAddEdge(0, 2)
	b.MustAddEdge(0, 1)
	b.MustAddEdge(0, 3)
	g := b.MustBuild()
	want := []Vertex{2, 1, 3}
	for p, w := range want {
		if got := g.Neighbor(0, p); got != w {
			t.Errorf("Neighbor(0,%d) = %d, want %d", p, got, w)
		}
	}
	if p := g.PortTo(0, 3); p != 2 {
		t.Errorf("PortTo(0,3) = %d, want 2", p)
	}
	if p := g.PortTo(1, 3); p != -1 {
		t.Errorf("PortTo(1,3) = %d, want -1", p)
	}
}

func TestIDAssignment(t *testing.T) {
	b := NewBuilder(3)
	b.MustAddEdge(0, 1)
	b.MustAddEdge(1, 2)
	b.SetID(0, 7)
	b.SetID(1, 5)
	b.SetID(2, 9)
	b.SetNPrime(10)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if g.ID(0) != 7 || g.ID(2) != 9 {
		t.Fatalf("IDs wrong: %d, %d", g.ID(0), g.ID(2))
	}
	if v, ok := g.VertexByID(5); !ok || v != 1 {
		t.Fatalf("VertexByID(5) = %d, %v", v, ok)
	}
	if _, ok := g.VertexByID(4); ok {
		t.Fatal("VertexByID(4) found a vertex, want none")
	}
	got := g.IDsOfNeighbors(1, nil)
	if len(got) != 2 || got[0] != 7 || got[1] != 9 {
		t.Fatalf("IDsOfNeighbors(1) = %v, want [7 9]", got)
	}
}

func TestBuildRejectsDuplicateIDs(t *testing.T) {
	b := NewBuilder(3)
	b.MustAddEdge(0, 1)
	b.MustAddEdge(1, 2)
	b.SetID(0, 1) // collides with vertex 1's default ID
	if _, err := b.Build(); err == nil {
		t.Fatal("Build succeeded with duplicate IDs, want error")
	}
}

func TestBuildRejectsOutOfRangeIDs(t *testing.T) {
	b := NewBuilder(2)
	b.MustAddEdge(0, 1)
	b.SetID(0, 99) // exceeds default nPrime = 2
	if _, err := b.Build(); err == nil {
		t.Fatal("Build succeeded with out-of-range ID, want error")
	}
}

func TestPermuteIDs(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	b := NewBuilder(50)
	for v := 0; v < 49; v++ {
		b.MustAddEdge(Vertex(v), Vertex(v+1))
	}
	b.PermuteIDs(rng)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if g.NPrime() != 50 {
		t.Fatalf("NPrime = %d, want 50", g.NPrime())
	}
	seen := make(map[int64]bool)
	for v := 0; v < g.N(); v++ {
		id := g.ID(Vertex(v))
		if id < 0 || id >= 50 || seen[id] {
			t.Fatalf("bad permuted ID %d at vertex %d", id, v)
		}
		seen[id] = true
	}
}

func TestSparseIDs(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	b := NewBuilder(20)
	for v := 0; v < 19; v++ {
		b.MustAddEdge(Vertex(v), Vertex(v+1))
	}
	if err := b.SparseIDs(10, rng); err != nil {
		t.Fatalf("SparseIDs: %v", err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if g.NPrime() != 200 {
		t.Fatalf("NPrime = %d, want 200", g.NPrime())
	}
	if err := b.SparseIDs(0, rng); err == nil {
		t.Fatal("SparseIDs(0) succeeded, want error")
	}
}

func TestCloneAndEqual(t *testing.T) {
	g := mustComplete(t, 6)
	h := g.Clone()
	if !g.Equal(h) {
		t.Fatal("clone not Equal to original")
	}
	g2 := mustComplete(t, 7)
	if g.Equal(g2) {
		t.Fatal("K6 Equal K7, want different")
	}
}

func TestFromAdjacencyRejectsAsymmetry(t *testing.T) {
	ids := []int64{0, 1}
	adj := [][]Vertex{{1}, {}} // 0->1 present, 1->0 missing
	if _, err := FromAdjacency(ids, adj, 2); err == nil {
		t.Fatal("FromAdjacency accepted asymmetric adjacency")
	}
}

func TestShufflePortsPreservesStructure(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	b := NewBuilder(30)
	for v := 1; v < 30; v++ {
		b.MustAddEdge(0, Vertex(v))
	}
	before := b.MustBuild()
	b.ShufflePorts(rng)
	after := b.MustBuild()
	if before.Equal(after) {
		t.Log("shuffle left ports unchanged (possible but unlikely)")
	}
	if after.Degree(0) != 29 || after.M() != before.M() {
		t.Fatal("shuffle changed structure")
	}
	if err := after.Validate(); err != nil {
		t.Fatalf("Validate after shuffle: %v", err)
	}
}

func TestRebuild(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 42))
	g, err := PlantedMinDegree(30, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	h := Rebuild(g).MustBuild()
	// Rebuild collapses port order to sorted-by-endpoint within each
	// vertex pair ordering; structure and IDs must be preserved even
	// if port order differs.
	if h.N() != g.N() || h.M() != g.M() || h.NPrime() != g.NPrime() {
		t.Fatalf("rebuild changed shape: %v vs %v", h, g)
	}
	for v := Vertex(0); int(v) < g.N(); v++ {
		if h.ID(v) != g.ID(v) {
			t.Fatalf("rebuild changed ID of %d", v)
		}
		if h.Degree(v) != g.Degree(v) {
			t.Fatalf("rebuild changed degree of %d", v)
		}
	}
	for v := Vertex(0); int(v) < g.N(); v++ {
		for _, w := range g.Adj(v) {
			if !h.HasEdge(v, w) {
				t.Fatalf("rebuild lost edge %d-%d", v, w)
			}
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	// FromAdjacency runs Validate; feed it raw corrupted structures.
	cases := []struct {
		name string
		ids  []int64
		adj  [][]Vertex
		np   int64
	}{
		{"self loop", []int64{0, 1}, [][]Vertex{{0, 1}, {0}}, 2},
		{"parallel edge", []int64{0, 1}, [][]Vertex{{1, 1}, {0, 0}}, 2},
		{"out of range neighbor", []int64{0, 1}, [][]Vertex{{5}, {0}}, 2},
		{"negative ID", []int64{-1, 1}, [][]Vertex{{1}, {0}}, 2},
		{"ID beyond nPrime", []int64{0, 5}, [][]Vertex{{1}, {0}}, 2},
		{"n exceeds nPrime", []int64{0, 1}, [][]Vertex{{1}, {0}}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := FromAdjacency(tc.ids, tc.adj, tc.np); err == nil {
				t.Fatalf("accepted %s", tc.name)
			}
		})
	}
}

// TestValidateRejectsUnderEveryNaming feeds the ID-order symmetry
// sweep each structural defect it must catch, under identity naming
// and under a permuted one (which changes the order it sweeps sources
// and reads runs in), and requires the error to name the defect.
func TestValidateRejectsUnderEveryNaming(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		adj        [][]Vertex
	}{
		{"asymmetric arc", "not symmetric", [][]Vertex{{1}, {2}, {}}},
		{"parallel edge", "parallel edge", [][]Vertex{{1, 1}, {0, 0}, {}}},
		{"self-loop", "self-loop", [][]Vertex{{0, 1}, {0, 1}, {}}},
		{"out-of-range neighbor", "out-of-range neighbor", [][]Vertex{{5, 6}, {}, {}}},
	} {
		for naming, ids := range map[string][]int64{"identity": {0, 1, 2}, "permuted": {2, 0, 1}} {
			t.Run(tc.name+"/"+naming, func(t *testing.T) {
				_, err := FromAdjacency(ids, tc.adj, 3)
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("got %v, want an error containing %q", err, tc.want)
				}
			})
		}
	}
}

func TestWriteToReportsBytes(t *testing.T) {
	g := mustComplete(t, 5)
	var buf bytes.Buffer
	n, err := g.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	if n == 0 {
		t.Fatal("empty serialization")
	}
}

// Property: Neighbor and PortTo are inverse on random graphs.
func TestPortToNeighborInverseProperty(t *testing.T) {
	check := func(seed uint64, nRaw uint8) bool {
		n := 5 + int(nRaw)%40
		rng := rand.New(rand.NewPCG(seed, 3))
		g, err := PlantedMinDegree(n, 3, rng)
		if err != nil {
			return false
		}
		for v := Vertex(0); int(v) < g.N(); v++ {
			for p := 0; p < g.Degree(v); p++ {
				w := g.Neighbor(v, p)
				if g.PortTo(v, w) != p {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: the Theorem-3 family keeps its degree profile at any size.
func TestTwoStarsProperty(t *testing.T) {
	check := func(raw uint16) bool {
		half := 1 + int(raw)%500
		g, ca, cb, err := TwoStars(half)
		if err != nil {
			return false
		}
		return g.N() == 2*half+2 &&
			g.Degree(ca) == half+1 && g.Degree(cb) == half+1 &&
			g.MinDegree() == 1 && g.HasEdge(ca, cb) && IsConnected(g)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestBridgedCliquePairDegreesUniform(t *testing.T) {
	// Theorem 4 needs every vertex at the same degree so KT0 port
	// counts carry no information.
	for _, n := range []int{6, 10, 64, 200} {
		g, _, _, _, _, err := BridgedCliquePair(n)
		if err != nil {
			t.Fatal(err)
		}
		if g.MinDegree() != g.MaxDegree() {
			t.Fatalf("n=%d: degrees not uniform: δ=%d ∆=%d", n, g.MinDegree(), g.MaxDegree())
		}
		if g.MinDegree() != n/2-1 {
			t.Fatalf("n=%d: degree %d, want %d", n, g.MinDegree(), n/2-1)
		}
	}
}
