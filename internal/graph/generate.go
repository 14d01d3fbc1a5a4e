package graph

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
)

// This file holds the graph families used across the experiments.
// Generators return graphs with tight IDs (ids[v] = v); relabel via the
// Builder helpers when an experiment needs permuted or sparse naming.

// Complete returns the complete graph K_n (n ≥ 2).
func Complete(n int) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("graph: complete graph needs n ≥ 2, got %d", n)
	}
	b := NewBuilder(n)
	b.Grow(n - 1)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.addKnownNew(Vertex(u), Vertex(v))
		}
	}
	return b.Build()
}

// Ring returns the cycle C_n (n ≥ 3).
func Ring(n int) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("graph: ring needs n ≥ 3, got %d", n)
	}
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		b.addKnownNew(Vertex(v), Vertex((v+1)%n))
	}
	return b.Build()
}

// Path returns the path P_n (n ≥ 2).
func Path(n int) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("graph: path needs n ≥ 2, got %d", n)
	}
	b := NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		b.addKnownNew(Vertex(v), Vertex(v+1))
	}
	return b.Build()
}

// Star returns the star S_{n-1}: vertex 0 is the center, vertices
// 1..n-1 are leaves (n ≥ 2).
func Star(n int) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("graph: star needs n ≥ 2, got %d", n)
	}
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		b.addKnownNew(0, Vertex(v))
	}
	return b.Build()
}

// Grid returns the rows×cols grid graph (rows, cols ≥ 1, rows·cols ≥ 2).
func Grid(rows, cols int) (*Graph, error) {
	if rows < 1 || cols < 1 || rows*cols < 2 {
		return nil, fmt.Errorf("graph: invalid grid %dx%d", rows, cols)
	}
	b := NewBuilder(rows * cols)
	at := func(r, c int) Vertex { return Vertex(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.addKnownNew(at(r, c), at(r, c+1))
			}
			if r+1 < rows {
				b.addKnownNew(at(r, c), at(r+1, c))
			}
		}
	}
	return b.Build()
}

// Torus returns the rows×cols torus (wrap-around grid); rows, cols ≥ 3
// so that no parallel edges arise.
func Torus(rows, cols int) (*Graph, error) {
	if rows < 3 || cols < 3 {
		return nil, fmt.Errorf("graph: torus needs rows, cols ≥ 3, got %dx%d", rows, cols)
	}
	b := NewBuilder(rows * cols)
	b.Grow(4)
	at := func(r, c int) Vertex { return Vertex(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			b.addKnownNew(at(r, c), at(r, (c+1)%cols))
			b.addKnownNew(at(r, c), at((r+1)%rows, c))
		}
	}
	return b.Build()
}

// Hypercube returns the dim-dimensional hypercube Q_dim (dim ≥ 1).
func Hypercube(dim int) (*Graph, error) {
	if dim < 1 || dim > 24 {
		return nil, fmt.Errorf("graph: hypercube dimension %d out of [1,24]", dim)
	}
	n := 1 << dim
	b := NewBuilder(n)
	b.Grow(dim)
	for v := 0; v < n; v++ {
		for bit := 0; bit < dim; bit++ {
			w := v ^ (1 << bit)
			if v < w {
				b.addKnownNew(Vertex(v), Vertex(w))
			}
		}
	}
	return b.Build()
}

// checkGNPArgs validates the shared G(n,p) parameter domain.
func checkGNPArgs(n int, p float64) error {
	if n < 2 {
		return fmt.Errorf("graph: G(n,p) needs n ≥ 2, got %d", n)
	}
	if math.IsNaN(p) || p < 0 || p > 1 {
		return fmt.Errorf("graph: G(n,p) needs p in [0,1], got %v", p)
	}
	return nil
}

// GNP returns an Erdős–Rényi G(n, p) sample using geometric
// edge-skipping: instead of one Bernoulli draw per vertex pair (O(n²)
// RNG calls), it draws the gap to the next present edge from the
// geometric distribution, so generation costs O(n + m) RNG calls and
// O(n + m) work overall. The result may be disconnected or have
// isolated vertices; callers that need degree floors should use
// PlantedMinDegree instead.
//
// The sampled distribution is exactly G(n, p), but the RNG draw stream
// differs from the seed implementation's per-pair loop; GNPExact keeps
// that legacy stream for reproducibility tests.
func GNP(n int, p float64, rng *rand.Rand) (*Graph, error) {
	if err := checkGNPArgs(n, p); err != nil {
		return nil, err
	}
	if p == 1 {
		return Complete(n)
	}
	b := NewBuilder(n)
	if p == 0 {
		return b.Build()
	}
	// Pairs (u,v), u < v, in lexicographic order get linear indices
	// 0..C(n,2)-1. Jump between present pairs with geometric gaps:
	// skip ~ floor(log(1-U) / log(1-p)).
	logq := math.Log1p(-p)
	total := int64(n) * int64(n-1) / 2
	var u int64
	rowStart, rowEnd := int64(0), int64(n-1) // row u covers [rowStart, rowEnd)
	i := int64(-1)
	for {
		gap := math.Log1p(-rng.Float64()) / logq
		if gap >= float64(total) { // also catches +Inf before the int conversion
			break
		}
		i += 1 + int64(gap)
		if i >= total {
			break
		}
		for i >= rowEnd {
			u++
			rowStart = rowEnd
			rowEnd += int64(n) - 1 - u
		}
		v := u + 1 + (i - rowStart)
		b.addKnownNew(Vertex(u), Vertex(v))
	}
	return b.Build()
}

// GNPExact returns an Erdős–Rényi G(n, p) sample with the seed
// implementation's draw stream: exactly one rng.Float64 per vertex
// pair in lexicographic order. It exists so reproducibility tests and
// experiments pinned to historic streams keep their exact topologies;
// new code should use GNP, which samples the same distribution in
// O(n + m) draws.
func GNPExact(n int, p float64, rng *rand.Rand) (*Graph, error) {
	if err := checkGNPArgs(n, p); err != nil {
		return nil, err
	}
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				b.addKnownNew(Vertex(u), Vertex(v))
			}
		}
	}
	return b.Build()
}

// aliveList is an order-statistics structure over the fixed vertex
// range [0, n): a Fenwick tree of 0/1 weights supporting "remove
// vertex" and "select the k-th alive vertex in index order", both in
// O(log n). PlantedMinDegree uses it to reproduce the draw semantics
// of the original compact-then-index deficit list (uniform selection
// over the surviving vertices in index order) without the O(n) rescan
// per added edge that made large-n generation quadratic.
//
// The tree is padded to a power-of-two range so the kth descent needs
// no bounds test; the padding slots stand for vertices that are never
// alive.
type aliveList struct {
	tree  []int32 // 1-based Fenwick partial sums over a power-of-two range
	alive []bool
	count int
}

func newAliveList(n int) *aliveList {
	return &aliveList{tree: make([]int32, 1<<bits.Len(uint(n-1))+1), alive: make([]bool, n)}
}

func (a *aliveList) insert(v Vertex) {
	if a.alive[v] {
		return
	}
	a.alive[v] = true
	a.count++
	for i := int(v) + 1; i < len(a.tree); i += i & (-i) {
		a.tree[i]++
	}
}

func (a *aliveList) remove(v Vertex) {
	if !a.alive[v] {
		return
	}
	a.alive[v] = false
	a.count--
	for i := int(v) + 1; i < len(a.tree); i += i & (-i) {
		a.tree[i]--
	}
}

// kth returns the (k+1)-th alive vertex in index order, k in
// [0, count). The descent is branchless: whether a node's count c is
// below the remaining rank is the sign of c - rem, turned into an
// all-ones or all-zeros mask (the comparison is data-dependent and
// mispredicts about half the time as a branch).
func (a *aliveList) kth(k int) Vertex {
	pos := 0
	rem := int32(k) + 1
	for step := len(a.tree) >> 1; step > 0; step >>= 1 {
		c := a.tree[pos+step]
		take := (c - rem) >> 31 // -1 when c < rem, else 0
		rem -= c & take
		pos += step & int(take)
	}
	return Vertex(pos) // tree is 1-based: slot pos+1 -> vertex pos
}

// plantedFallbackDraws bounds PlantedMinDegree's uniform rejection
// loop before it switches to explicit non-neighbor enumeration. The
// bound is high enough that workloads with d = O(n/2) never reach it
// (each draw fails with probability ≈ d/n, so 64 consecutive failures
// are astronomically unlikely), keeping the common-path RNG stream
// byte-identical to the seed implementation, while degenerate d ≈ n
// instances terminate deterministically instead of spinning.
const plantedFallbackDraws = 64

// PlantedMinDegree returns a connected graph on n vertices with minimum
// degree at least d and maximum degree O(d) in expectation: a
// Hamiltonian cycle (connectivity) plus random edges added from
// deficit vertices until every vertex reaches degree d. This is the
// quasi-regular workload family used by the scaling experiments, where
// δ is the controlled parameter and ∆/δ stays bounded.
//
// The RNG draw sequence is byte-identical to the seed implementation
// on non-degenerate inputs: the Hamiltonian prefix consumes exactly
// the rng.Perm(n) draws (its edges are bulk-filled by AddCycle, which
// draws nothing), and the deficit list is maintained as a Fenwick
// order-statistics structure whose selection semantics match the
// original per-iteration compaction exactly, at O(log n) instead of
// O(n) per added edge. Each drawn partner is tested with exactly one
// Builder.HasEdge and the accepted edge is added unchecked, so an
// added edge costs one membership test, not three. When the degree
// hint d+2 reaches the builder's bitset threshold max(64, n/64) (the
// benchmark shapes 2048×64 and 4096×128, for instance), Grow makes
// each membership test one bit probe and Build reads the sorted runs
// off the bitsets.
func PlantedMinDegree(n, d int, rng *rand.Rand) (*Graph, error) {
	return PlantedMinDegreeProgress(n, d, rng, nil)
}

// PlantedMinDegreeProgress is PlantedMinDegree with a generation
// observer: progress (when non-nil) is called periodically with the
// edges added so far and the expected total ≈ n·d/2 (done may end
// slightly past the estimate — deficit pairing can overshoot by a few
// edges). The callback only observes; the RNG draw sequence and the
// resulting topology are identical to PlantedMinDegree's.
func PlantedMinDegreeProgress(n, d int, rng *rand.Rand, progress func(done, expected int)) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("graph: planted graph needs n ≥ 3, got %d", n)
	}
	if d < 2 || d > n-1 {
		return nil, fmt.Errorf("graph: planted degree %d out of [2, %d]", d, n-1)
	}
	b := NewBuilder(n)
	b.Grow(min(d+2, n-1))
	perm := rng.Perm(n)
	if err := b.AddCycle(perm); err != nil {
		return nil, err
	}
	expected := max(n, n*d/2)
	every := max(1, expected/64)
	nextReport := b.M() + every
	if progress != nil {
		progress(b.M(), expected)
	}
	// Repeatedly pick a vertex with deficit and connect it to a random
	// non-neighbor, preferring other deficit vertices to keep the
	// degree distribution tight. Selection draws index the alive
	// deficit vertices in vertex order — the same order the original
	// compacted slice exposed.
	deficit := newAliveList(n)
	for v := 0; v < n; v++ {
		if b.Degree(Vertex(v)) < d {
			deficit.insert(Vertex(v))
		}
	}
	for deficit.count > 0 {
		v := deficit.kth(rng.IntN(deficit.count))
		// Try a few times to pair two deficit vertices. Each candidate
		// is drawn once and tested once; the first that is neither v
		// nor adjacent to v is taken.
		w := NilVertex
		for try := 0; try < 8 && deficit.count > 1; try++ {
			if c := deficit.kth(rng.IntN(deficit.count)); c != v && !b.HasEdge(v, c) {
				w = c
				break
			}
		}
		if w == NilVertex {
			// Fall back to a uniform non-neighbor; after
			// plantedFallbackDraws failed draws (only reachable when v
			// is adjacent to nearly all of V), enumerate the
			// non-neighbors explicitly instead of spinning.
			w = Vertex(rng.IntN(n))
			for draws := 1; w == v || b.HasEdge(v, w); draws++ {
				if draws >= plantedFallbackDraws {
					w = pickNonNeighbor(b, v, rng)
					break
				}
				w = Vertex(rng.IntN(n))
			}
		}
		// Both branches proved v ≠ w and v-w new.
		b.addKnownNew(v, w)
		if b.Degree(v) >= d {
			deficit.remove(v)
		}
		if b.Degree(w) >= d {
			deficit.remove(w)
		}
		if progress != nil && b.M() >= nextReport {
			progress(b.M(), expected)
			nextReport = b.M() + every
		}
	}
	if progress != nil {
		progress(b.M(), expected)
	}
	return b.Build()
}

// pickNonNeighbor returns a uniformly chosen vertex that is neither v
// nor adjacent to v. A deficit vertex has degree < d ≤ n-1, so at
// least one such vertex always exists.
func pickNonNeighbor(b *Builder, v Vertex, rng *rand.Rand) Vertex {
	nonNbrs := make([]Vertex, 0, b.N()-1-b.Degree(v))
	for w := Vertex(0); int(w) < b.N(); w++ {
		if w != v && !b.HasEdge(v, w) {
			nonNbrs = append(nonNbrs, w)
		}
	}
	if len(nonNbrs) == 0 {
		panic(fmt.Sprintf("graph: vertex %d has no non-neighbor (degree %d of n=%d)", v, b.Degree(v), b.N()))
	}
	return nonNbrs[rng.IntN(len(nonNbrs))]
}

// RandomRegular returns a random d-regular graph on n vertices using
// Steger–Wormald incremental stub matching: unmatched stubs are paired
// uniformly at random, rejecting loops and parallel edges locally
// (via the builder's O(log d) / O(1) edge test), and the whole
// construction restarts on a dead end. One builder is reused across
// restarts via Reset, so a restart costs no fresh allocations. n·d
// must be even and d ≤ n-1.
func RandomRegular(n, d int, rng *rand.Rand) (*Graph, error) {
	if n < 2 || d < 1 || d > n-1 {
		return nil, fmt.Errorf("graph: random regular needs 1 ≤ d ≤ n-1, got n=%d d=%d", n, d)
	}
	if n*d%2 != 0 {
		return nil, fmt.Errorf("graph: random regular needs n·d even, got n=%d d=%d", n, d)
	}
	stubs := make([]Vertex, 0, n*d)
	b := NewBuilder(n)
	b.Grow(d)
restart:
	for try := 0; try < 200; try++ {
		stubs = stubs[:0]
		for v := 0; v < n; v++ {
			for i := 0; i < d; i++ {
				stubs = append(stubs, Vertex(v))
			}
		}
		b.Reset()
		for len(stubs) > 0 {
			// Pick a valid random pair of stubs; give up on this
			// attempt after enough failed draws (dead end).
			ok := false
			for draw := 0; draw < 64; draw++ {
				i := rng.IntN(len(stubs))
				j := rng.IntN(len(stubs))
				if i == j {
					continue
				}
				u, v := stubs[i], stubs[j]
				if u == v || b.HasEdge(u, v) {
					continue
				}
				b.addKnownNew(u, v)
				// Remove the two stubs (order matters: delete the
				// larger index first).
				if i < j {
					i, j = j, i
				}
				stubs[i] = stubs[len(stubs)-1]
				stubs = stubs[:len(stubs)-1]
				stubs[j] = stubs[len(stubs)-1]
				stubs = stubs[:len(stubs)-1]
				ok = true
				break
			}
			if !ok {
				continue restart
			}
		}
		return b.Build()
	}
	return nil, fmt.Errorf("graph: random regular pairing failed for n=%d d=%d", n, d)
}
