package graph

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func TestComplete(t *testing.T) {
	for _, n := range []int{2, 3, 5, 17} {
		g, err := Complete(n)
		if err != nil {
			t.Fatalf("Complete(%d): %v", n, err)
		}
		if g.M() != n*(n-1)/2 {
			t.Errorf("K%d has %d edges, want %d", n, g.M(), n*(n-1)/2)
		}
		if g.MinDegree() != n-1 || g.MaxDegree() != n-1 {
			t.Errorf("K%d degrees δ=%d ∆=%d, want both %d", n, g.MinDegree(), g.MaxDegree(), n-1)
		}
	}
	if _, err := Complete(1); err == nil {
		t.Error("Complete(1) succeeded, want error")
	}
}

func TestRingPathStar(t *testing.T) {
	g, err := Ring(8)
	if err != nil {
		t.Fatalf("Ring: %v", err)
	}
	if g.M() != 8 || g.MinDegree() != 2 || g.MaxDegree() != 2 || Diameter(g) != 4 {
		t.Errorf("Ring(8): m=%d δ=%d ∆=%d diam=%d", g.M(), g.MinDegree(), g.MaxDegree(), Diameter(g))
	}
	p, err := Path(5)
	if err != nil {
		t.Fatalf("Path: %v", err)
	}
	if p.M() != 4 || p.MinDegree() != 1 || Diameter(p) != 4 {
		t.Errorf("Path(5): m=%d δ=%d diam=%d", p.M(), p.MinDegree(), Diameter(p))
	}
	s, err := Star(10)
	if err != nil {
		t.Fatalf("Star: %v", err)
	}
	if s.Degree(0) != 9 || s.MinDegree() != 1 || Diameter(s) != 2 {
		t.Errorf("Star(10): deg0=%d δ=%d diam=%d", s.Degree(0), s.MinDegree(), Diameter(s))
	}
	for _, f := range []func(int) (*Graph, error){Ring, Path, Star} {
		if _, err := f(1); err == nil {
			t.Error("generator accepted n=1")
		}
	}
}

func TestGridTorusHypercube(t *testing.T) {
	g, err := Grid(3, 4)
	if err != nil {
		t.Fatalf("Grid: %v", err)
	}
	if g.N() != 12 || g.M() != 3*3+2*4 || !IsConnected(g) {
		t.Errorf("Grid(3,4): n=%d m=%d connected=%v", g.N(), g.M(), IsConnected(g))
	}
	tor, err := Torus(4, 5)
	if err != nil {
		t.Fatalf("Torus: %v", err)
	}
	if tor.MinDegree() != 4 || tor.MaxDegree() != 4 || tor.M() != 2*4*5 {
		t.Errorf("Torus(4,5): δ=%d ∆=%d m=%d", tor.MinDegree(), tor.MaxDegree(), tor.M())
	}
	if _, err := Torus(2, 5); err == nil {
		t.Error("Torus(2,5) succeeded, want error (parallel edges)")
	}
	h, err := Hypercube(4)
	if err != nil {
		t.Fatalf("Hypercube: %v", err)
	}
	if h.N() != 16 || h.MinDegree() != 4 || h.MaxDegree() != 4 || Diameter(h) != 4 {
		t.Errorf("Q4: n=%d δ=%d ∆=%d diam=%d", h.N(), h.MinDegree(), h.MaxDegree(), Diameter(h))
	}
}

func TestGNP(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	g, err := GNP(100, 0.2, rng)
	if err != nil {
		t.Fatalf("GNP: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Expected m ≈ 0.2 · C(100,2) = 990; allow a wide band.
	if g.M() < 700 || g.M() > 1300 {
		t.Errorf("GNP(100, 0.2) has %d edges, expected ≈990", g.M())
	}
	if _, err := GNP(100, 1.5, rng); err == nil {
		t.Error("GNP accepted p=1.5")
	}
	empty, err := GNP(10, 0, rng)
	if err != nil || empty.M() != 0 {
		t.Errorf("GNP(10, 0): m=%d err=%v", empty.M(), err)
	}
}

func TestPlantedMinDegree(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	for _, tc := range []struct{ n, d int }{
		{16, 4}, {64, 8}, {100, 30}, {200, 14}, {50, 49},
	} {
		g, err := PlantedMinDegree(tc.n, tc.d, rng)
		if err != nil {
			t.Fatalf("PlantedMinDegree(%d,%d): %v", tc.n, tc.d, err)
		}
		if g.MinDegree() < tc.d {
			t.Errorf("PlantedMinDegree(%d,%d): δ=%d < %d", tc.n, tc.d, g.MinDegree(), tc.d)
		}
		if !IsConnected(g) {
			t.Errorf("PlantedMinDegree(%d,%d) disconnected", tc.n, tc.d)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("Validate: %v", err)
		}
		// The family should stay quasi-regular: ∆ within a small factor of d.
		if g.MaxDegree() > 3*tc.d+8 {
			t.Errorf("PlantedMinDegree(%d,%d): ∆=%d too large vs d", tc.n, tc.d, g.MaxDegree())
		}
	}
	if _, err := PlantedMinDegree(10, 10, rand.New(rand.NewPCG(0, 0))); err == nil {
		t.Error("PlantedMinDegree accepted d = n")
	}
}

func TestRandomRegular(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	for _, tc := range []struct{ n, d int }{{20, 3}, {50, 6}, {64, 8}} {
		g, err := RandomRegular(tc.n, tc.d, rng)
		if err != nil {
			t.Fatalf("RandomRegular(%d,%d): %v", tc.n, tc.d, err)
		}
		if g.MinDegree() != tc.d || g.MaxDegree() != tc.d {
			t.Errorf("RandomRegular(%d,%d): δ=%d ∆=%d", tc.n, tc.d, g.MinDegree(), g.MaxDegree())
		}
	}
	if _, err := RandomRegular(5, 3, rng); err == nil {
		t.Error("RandomRegular accepted odd n·d")
	}
}

// Property: PlantedMinDegree always yields a connected simple graph with
// the requested degree floor, across random parameters.
func TestPlantedMinDegreeProperty(t *testing.T) {
	check := func(seed uint64, nRaw, dRaw uint16) bool {
		n := 10 + int(nRaw)%120
		d := 2 + int(dRaw)%(n-2)
		rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
		g, err := PlantedMinDegree(n, d, rng)
		if err != nil {
			return false
		}
		return g.MinDegree() >= d && IsConnected(g) && g.Validate() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: GNP outputs validate and respect the vertex count.
func TestGNPProperty(t *testing.T) {
	check := func(seed uint64, nRaw uint8, pRaw uint8) bool {
		n := 2 + int(nRaw)%80
		p := float64(pRaw) / 255
		rng := rand.New(rand.NewPCG(seed, 1))
		g, err := GNP(n, p, rng)
		if err != nil {
			return false
		}
		return g.N() == n && g.Validate() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestAliveListMatchesSortedSlice drives the blocked aliveList and a
// brute-force ascending slice through one random sequence of inserts,
// removes and kth queries, then drains both in random order, at sizes
// on and around the 256-vertex block edges.
func TestAliveListMatchesSortedSlice(t *testing.T) {
	for _, n := range []int{1, 2, 255, 256, 257, 1000, 4099} {
		rng := rand.New(rand.NewPCG(uint64(n), 17))
		a := newAliveList(n)
		var want []Vertex
		check := func(step string) {
			t.Helper()
			if a.count != len(want) {
				t.Fatalf("n=%d %s: count %d, want %d", n, step, a.count, len(want))
			}
			if len(want) == 0 {
				return
			}
			for _, k := range []int{0, len(want) - 1, rng.IntN(len(want))} {
				if got := a.kth(k); got != want[k] {
					t.Fatalf("n=%d %s: kth(%d) = %d, want %d", n, step, k, got, want[k])
				}
			}
		}
		for step := 0; step < 10*n+100; step++ {
			v := Vertex(rng.IntN(n))
			i, ok := slices.BinarySearch(want, v)
			if rng.IntN(2) == 0 {
				a.insert(v)
				if !ok {
					want = slices.Insert(want, i, v)
				}
			} else {
				a.remove(v)
				if ok {
					want = slices.Delete(want, i, i+1)
				}
			}
			check("mixed")
		}
		for len(want) > 0 {
			i := rng.IntN(len(want))
			a.remove(want[i])
			want = slices.Delete(want, i, i+1)
			check("drain")
		}
	}
}
