package graph

import (
	"bytes"
	"hash/fnv"
	"io"
	"maps"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// topoHash digests a graph's full observable topology — sizes, ID
// table, and every adjacency list in port order — so regression tests
// can pin a generated instance to one value.
func topoHash(g *Graph) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(x >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(g.N()))
	put(uint64(g.NPrime()))
	for v := Vertex(0); int(v) < g.N(); v++ {
		put(uint64(g.ID(v)))
	}
	for v := Vertex(0); int(v) < g.N(); v++ {
		put(uint64(g.Degree(v)))
		for _, w := range g.Adj(v) {
			put(uint64(w))
		}
	}
	return h.Sum64()
}

// TestPlantedMinDegreeBenchTopologyPinned pins the exact topology of
// the reference workload PlantedMinDegree(1024, 181) under the
// default job stream PCG(7, 0xbe7c4), including the start-pair draws
// that follow it, and of the fnrbench shapes below. The values were
// recorded from the seed (pre-CSR) implementation; if this test fails,
// the generator's RNG draw sequence moved and every pinned aggregate
// and fnrbench digest of these workloads is silently invalidated.
func TestPlantedMinDegreeBenchTopologyPinned(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 0xbe7c4))
	g, err := PlantedMinDegree(1024, 181, rng)
	if err != nil {
		t.Fatal(err)
	}
	if h := topoHash(g); h != 0x314fbb045ed27955 {
		t.Errorf("topology hash = %#x, want 0x314fbb045ed27955 (bench workload moved)", h)
	}
	if g.M() != 92681 || g.MinDegree() != 181 || g.MaxDegree() != 182 {
		t.Errorf("shape = m=%d δ=%d ∆=%d, want m=92681 δ=181 ∆=182", g.M(), g.MinDegree(), g.MaxDegree())
	}
	sa := Vertex(rng.IntN(g.N()))
	for g.Degree(sa) == 0 {
		sa = Vertex(rng.IntN(g.N()))
	}
	sb := g.Adj(sa)[rng.IntN(g.Degree(sa))]
	if sa != 902 || sb != 577 {
		t.Errorf("start pair = (%d, %d), want (902, 577)", sa, sb)
	}

	// The served benchmark shapes under a job.Workload stream
	// PCG(seed, job.DefaultStream = 0xbe7c4), plus one dense shape whose
	// deficit loop reaches pickNonNeighbor. next is the stream's next
	// draw after generation — the position Workload.Materialize draws
	// its start pair from. Recorded from the generator before the
	// single-HasEdge deficit loop and the sort-free Build.
	for _, tc := range []struct {
		n, d          int
		seed          uint64
		hash          uint64
		m, minD, maxD int
		next          uint64
	}{
		{2048, 64, 1, 0xdb60b1c38c3ca19b, 65539, 64, 65, 0xba6c9144c006b75a},
		{4096, 128, 2, 0xc96a29cdb28702fc, 262151, 128, 129, 0x659e5607ba2e2c28},
		{200, 190, 7, 0x40351c587227e600, 19100, 190, 194, 0x7a0b88c170c6ca6d},
	} {
		rng := rand.New(rand.NewPCG(tc.seed, 0xbe7c4))
		g, err := PlantedMinDegree(tc.n, tc.d, rng)
		if err != nil {
			t.Fatal(err)
		}
		if h := topoHash(g); h != tc.hash {
			t.Errorf("PlantedMinDegree(%d,%d) seed %d: hash = %#x, want %#x", tc.n, tc.d, tc.seed, h, tc.hash)
		}
		if g.M() != tc.m || g.MinDegree() != tc.minD || g.MaxDegree() != tc.maxD {
			t.Errorf("PlantedMinDegree(%d,%d) seed %d: m=%d δ=%d ∆=%d, want m=%d δ=%d ∆=%d",
				tc.n, tc.d, tc.seed, g.M(), g.MinDegree(), g.MaxDegree(), tc.m, tc.minD, tc.maxD)
		}
		if next := rng.Uint64(); next != tc.next {
			t.Errorf("PlantedMinDegree(%d,%d) seed %d: next draw = %#x, want %#x (stream position moved)", tc.n, tc.d, tc.seed, next, tc.next)
		}
	}
}

// TestGNPExactStreamPinned pins GNPExact to the seed implementation's
// per-pair Bernoulli draw stream (values recorded from the pre-CSR
// GNP). GNP itself now uses geometric edge-skipping and draws
// differently; GNPExact is the compatibility gate.
func TestGNPExactStreamPinned(t *testing.T) {
	cases := []struct {
		n     int
		p     float64
		s1    uint64
		s2    uint64
		hash  uint64
		edges int
	}{
		{50, 0.3, 1, 2, 0x7a717779b869ffda, 368},
		{100, 0.2, 7, 7, 0x33b1996f35032083, 1015},
	}
	for _, tc := range cases {
		g, err := GNPExact(tc.n, tc.p, rand.New(rand.NewPCG(tc.s1, tc.s2)))
		if err != nil {
			t.Fatal(err)
		}
		if h := topoHash(g); h != tc.hash {
			t.Errorf("GNPExact(%d, %v): hash = %#x, want %#x", tc.n, tc.p, h, tc.hash)
		}
		if g.M() != tc.edges {
			t.Errorf("GNPExact(%d, %v): m = %d, want %d", tc.n, tc.p, g.M(), tc.edges)
		}
	}
}

// allFamilies generates one modest instance of every graph family for
// the semantic-equivalence properties.
func allFamilies(t *testing.T) map[string]*Graph {
	t.Helper()
	out := map[string]*Graph{}
	add := func(name string, g *Graph, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = g
	}
	rng := rand.New(rand.NewPCG(99, 0x5eed))
	g, err := Complete(24)
	add("complete", g, err)
	g, err = Ring(31)
	add("ring", g, err)
	g, err = Path(17)
	add("path", g, err)
	g, err = Star(20)
	add("star", g, err)
	g, err = Grid(5, 7)
	add("grid", g, err)
	g, err = Torus(4, 6)
	add("torus", g, err)
	g, err = Hypercube(5)
	add("hypercube", g, err)
	g, err = GNP(60, 0.25, rng)
	add("gnp", g, err)
	g, err = GNPExact(60, 0.25, rng)
	add("gnp exact", g, err)
	g, err = GNP(150, 0.8, rng) // dense: exercises builder bitset promotion
	add("gnp dense", g, err)
	g, err = PlantedMinDegree(80, 9, rng)
	add("planted", g, err)
	g, err = RandomRegular(30, 4, rng)
	add("regular", g, err)
	g, _, _, err = TwoStars(12)
	add("twostars", g, err)
	g, _, _, err = StarCliquePair(3, 4)
	add("starclique", g, err)
	g, _, _, _, _, err = BridgedCliquePair(16)
	add("kt0", g, err)
	g, _, _, _, err = TwoCliquesSharing(7)
	add("dist2", g, err)
	// Relabeled variants cover non-tight ID spaces.
	b := Rebuild(out["planted"])
	b.PermuteIDs(rng)
	g, err = b.Build()
	add("planted permuted", g, err)
	b = Rebuild(out["gnp"])
	if err := b.SparseIDs(16, rng); err != nil {
		t.Fatal(err)
	}
	g, err = b.Build()
	add("gnp sparse", g, err)
	// Multi-byte varints in every arc section: vertex 0 is adjacent to
	// all others (ports past 127) and v to v+200 (gaps past 127), with
	// the ports shuffled.
	b = NewBuilder(400)
	for v := 1; v < 400; v++ {
		b.MustAddEdge(0, Vertex(v))
	}
	for v := 1; v < 200; v++ {
		b.MustAddEdge(Vertex(v), Vertex(v+200))
	}
	b.ShufflePorts(rng)
	g, err = b.Build()
	add("wide gaps", g, err)
	return out
}

// namings relabels g three ways: identity naming (ID = index), a
// random permutation of [0, n), and sparse IDs from [0, 16n).
func namings(t *testing.T, g *Graph, rng *rand.Rand) map[string]*Graph {
	t.Helper()
	b := Rebuild(g)
	for v := range Vertex(g.N()) {
		b.SetID(v, int64(v))
	}
	b.SetNPrime(int64(g.N()))
	identity := b.MustBuild()
	b = Rebuild(g)
	b.PermuteIDs(rng)
	permuted := b.MustBuild()
	b = Rebuild(g)
	if err := b.SparseIDs(16, rng); err != nil {
		t.Fatal(err)
	}
	return map[string]*Graph{"identity": identity, "permuted": permuted, "sparse": b.MustBuild()}
}

// TestCSRSemanticsAcrossFamilies checks, for every generator family
// under identity, permuted and sparse naming, that the CSR graph is
// semantically identical to its plain adjacency form: rebuilding
// through FromAdjacency reproduces an Equal graph, Clone and the v1
// and v3 serializations round-trip, HasEdge matches a naive membership
// scan, PortTo inverts Neighbor, PortOfID inverts ID(Adj(v)[p]) and
// misses every other ID, and Validate accepts the result. The other
// neighbor-ID reads are checked under every naming by
// TestNeighborIDReadsAgreeAcrossNamings.
func TestCSRSemanticsAcrossFamilies(t *testing.T) {
	rng := rand.New(rand.NewPCG(28, 0x5eed))
	families := allFamilies(t)
	for _, family := range slices.Sorted(maps.Keys(families)) { // the relabelings draw from one rng
		relabeled := namings(t, families[family], rng)
		t.Run(family, func(t *testing.T) {
			for naming, g := range relabeled {
				t.Run(naming, func(t *testing.T) { checkCSRSemantics(t, g) })
			}
		})
	}
}

func checkCSRSemantics(t *testing.T, g *Graph) {
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Reconstruct the plain adjacency form through the public API and
	// rebuild: must be Equal both ways.
	n := g.N()
	ids := make([]int64, n)
	rows := make([][]Vertex, n)
	for v := Vertex(0); int(v) < n; v++ {
		ids[v] = g.ID(v)
		rows[v] = make([]Vertex, g.Degree(v))
		for p := range rows[v] {
			rows[v][p] = g.Neighbor(v, p)
		}
	}
	h, err := FromAdjacency(ids, rows, g.NPrime())
	if err != nil {
		t.Fatalf("FromAdjacency: %v", err)
	}
	if !g.Equal(h) || !h.Equal(g) {
		t.Fatal("FromAdjacency round-trip not Equal")
	}
	if c := g.Clone(); !g.Equal(c) || topoHash(c) != topoHash(g) {
		t.Fatal("Clone not Equal")
	}
	for format, write := range map[string]func(io.Writer) (int64, error){"v1": g.WriteTo, "v3": g.WriteBinaryV3} {
		var buf bytes.Buffer
		if _, err := write(&buf); err != nil {
			t.Fatalf("%s write: %v", format, err)
		}
		if h, err := Read(&buf); err != nil || !g.Equal(h) {
			t.Fatalf("%s round trip: err %v, Equal %v", format, err, err == nil && g.Equal(h))
		}
	}
	// Naive adjacency membership as ground truth for HasEdge.
	adj := make(map[[2]Vertex]bool)
	for v := Vertex(0); int(v) < n; v++ {
		for _, w := range rows[v] {
			adj[[2]Vertex{v, w}] = true
		}
	}
	for u := Vertex(0); int(u) < n; u++ {
		for v := Vertex(0); int(v) < n; v++ {
			if g.HasEdge(u, v) != adj[[2]Vertex{u, v}] {
				t.Fatalf("HasEdge(%d,%d) = %v, want %v", u, v, g.HasEdge(u, v), adj[[2]Vertex{u, v}])
			}
		}
	}
	// Port round-trips: Neighbor <-> PortTo and ID(Neighbor) <->
	// PortOfID, which misses every ID that is not a neighbor's.
	for v := Vertex(0); int(v) < n; v++ {
		for p := 0; p < g.Degree(v); p++ {
			w := g.Neighbor(v, p)
			if got := g.PortTo(v, w); got != p {
				t.Fatalf("PortTo(%d,%d) = %d, want %d", v, w, got, p)
			}
			if got := g.PortOfID(v, g.ID(w)); got != p {
				t.Fatalf("PortOfID(%d, ID %d) = %d, want %d", v, g.ID(w), got, p)
			}
		}
		if g.PortOfID(v, g.NPrime()+5) != -1 {
			t.Fatalf("PortOfID(%d, out-of-space) != -1", v)
		}
		// IDs past the index range must miss even where their low 32
		// bits name a neighbor.
		if g.Degree(v) > 0 {
			for _, id := range []int64{-1, 1<<32 + g.ID(g.Neighbor(v, 0))} {
				if g.PortOfID(v, id) != -1 {
					t.Fatalf("PortOfID(%d, %d) != -1", v, id)
				}
			}
		}
		for u := Vertex(0); int(u) < n; u++ {
			if (g.PortOfID(v, g.ID(u)) >= 0) != g.HasEdge(v, u) {
				t.Fatalf("PortOfID(%d, ID of %d) disagrees with HasEdge", v, u)
			}
		}
	}
}

// TestBuilderReset checks that Reset keeps the vertex set, IDs and n'
// while dropping every edge, and that a reused builder reproduces the
// same graph an equivalent fresh builder would.
func TestBuilderReset(t *testing.T) {
	b := NewBuilder(40)
	rng := rand.New(rand.NewPCG(3, 14))
	b.PermuteIDs(rng)
	for v := Vertex(0); v < 39; v++ {
		b.MustAddEdge(v, v+1)
	}
	b.MustAddEdge(0, 20)
	if b.M() != 40 {
		t.Fatalf("M = %d, want 40", b.M())
	}
	first := b.MustBuild()
	b.Reset()
	if b.M() != 0 {
		t.Fatalf("M after Reset = %d, want 0", b.M())
	}
	for v := Vertex(0); int(v) < b.N(); v++ {
		if b.Degree(v) != 0 {
			t.Fatalf("degree of %d after Reset = %d, want 0", v, b.Degree(v))
		}
	}
	if b.HasEdge(0, 1) || b.HasEdge(0, 20) {
		t.Fatal("HasEdge true after Reset")
	}
	// Rebuild the identical edge set: graphs must be Equal (IDs and
	// n' survive the Reset).
	for v := Vertex(0); v < 39; v++ {
		b.MustAddEdge(v, v+1)
	}
	b.MustAddEdge(0, 20)
	second := b.MustBuild()
	if !first.Equal(second) {
		t.Fatal("rebuilt graph differs after Reset")
	}
}

// TestBuilderResetAfterBitsetPromotion covers Reset on a builder whose
// dense vertices were promoted to bitset membership.
func TestBuilderResetAfterBitsetPromotion(t *testing.T) {
	n := 200
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		b.MustAddEdge(0, Vertex(v)) // vertex 0 passes the promotion threshold
	}
	b.Reset()
	if b.HasEdge(0, 1) {
		t.Fatal("HasEdge true after Reset of promoted vertex")
	}
	b.MustAddEdge(0, 1)
	if !b.HasEdge(0, 1) || b.HasEdge(0, 2) {
		t.Fatal("membership wrong after Reset of promoted vertex")
	}
	if err := b.MustBuild().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPlantedMinDegreeNearComplete exercises the uniform-fallback path
// at degrees close to n, where the seed implementation's unbounded
// rejection loop could spin for Θ(n) draws per edge (and arbitrarily
// long in the worst case): generation must terminate and deliver the
// degree floor. d = n-1 forces the complete graph.
func TestPlantedMinDegreeNearComplete(t *testing.T) {
	for _, tc := range []struct{ n, d int }{{12, 11}, {48, 47}, {64, 60}, {100, 97}} {
		rng := rand.New(rand.NewPCG(uint64(tc.n), uint64(tc.d)))
		g, err := PlantedMinDegree(tc.n, tc.d, rng)
		if err != nil {
			t.Fatalf("PlantedMinDegree(%d,%d): %v", tc.n, tc.d, err)
		}
		if g.MinDegree() < tc.d {
			t.Errorf("PlantedMinDegree(%d,%d): δ=%d", tc.n, tc.d, g.MinDegree())
		}
		if err := g.Validate(); err != nil {
			t.Errorf("Validate: %v", err)
		}
		if tc.d == tc.n-1 && g.M() != tc.n*(tc.n-1)/2 {
			t.Errorf("PlantedMinDegree(%d,%d): m=%d, want complete %d", tc.n, tc.d, g.M(), tc.n*(tc.n-1)/2)
		}
	}
}

// TestGNPGeometricDeterministic checks the geometric-skip sampler is
// deterministic per seed and diverges from the exact-stream sampler
// only in draw order, not in distribution (edge-count band).
func TestGNPGeometricDeterministic(t *testing.T) {
	g1, err := GNP(200, 0.15, rand.New(rand.NewPCG(5, 6)))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := GNP(200, 0.15, rand.New(rand.NewPCG(5, 6)))
	if err != nil {
		t.Fatal(err)
	}
	if !g1.Equal(g2) {
		t.Fatal("GNP not deterministic for a fixed seed")
	}
	// Expected m = 0.15 · C(200,2) = 2985; allow a wide band.
	if g1.M() < 2400 || g1.M() > 3600 {
		t.Errorf("GNP(200, 0.15): m=%d, expected ≈2985", g1.M())
	}
	if full, err := GNP(30, 1, rand.New(rand.NewPCG(1, 1))); err != nil || full.M() != 435 {
		t.Errorf("GNP(30, 1): m=%v err=%v, want complete 435", full.M(), err)
	}
	for _, f := range []func(int, float64, *rand.Rand) (*Graph, error){GNP, GNPExact} {
		if _, err := f(10, math.NaN(), rand.New(rand.NewPCG(1, 1))); err == nil {
			t.Error("G(n,p) accepted p=NaN")
		}
	}
}

// TestFootprintBytesPerArc pins the retained size of planted graphs in
// Theorem 1's shape (CI runs it in the allocation-gate step). Under
// every naming the per-arc arrays are nbrs and idPort, 4 bytes each,
// so FootprintBytes/arcs stays at or under 8.5 with the per-vertex
// tables included (8.16 B/arc identity on planted(4096,128)).
func TestFootprintBytesPerArc(t *testing.T) {
	for _, tc := range []struct{ n, d int }{{2048, 64}, {4096, 128}} {
		rng := rand.New(rand.NewPCG(uint64(tc.n), uint64(tc.d)))
		g, err := PlantedMinDegree(tc.n, tc.d, rng)
		if err != nil {
			t.Fatal(err)
		}
		arcs := float64(2 * g.M())
		for naming, g := range namings(t, g, rng) {
			perArc := float64(g.FootprintBytes()) / arcs
			t.Logf("planted(%d,%d) %s: %d B, %.2f B/arc", tc.n, tc.d, naming, g.FootprintBytes(), perArc)
			if perArc > 8.5 {
				t.Errorf("planted(%d,%d) %s: %.2f B/arc, want ≤ 8.5", tc.n, tc.d, naming, perArc)
			}
		}
	}
}
