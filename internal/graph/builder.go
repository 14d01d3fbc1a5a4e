package graph

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"
)

// adjTailCap bounds the unsorted tail of an adjSet: membership tests
// scan at most this many entries linearly before the binary search.
const adjTailCap = 32

// adjSet is one vertex's edge-membership set inside a Builder: a
// sorted array with a small unsorted insertion tail, promoted to a
// bitset once the vertex is dense enough that the bitset costs no more
// memory than the list (degree > n/64). Lookups are allocation-free:
// O(log d + adjTailCap) in list form, O(1) in bitset form.
type adjSet struct {
	sorted []Vertex // ascending
	tail   []Vertex // recent inserts, ≤ adjTailCap, unsorted
	bits   []uint64 // non-nil once promoted; then authoritative
}

func (s *adjSet) has(w Vertex) bool {
	if s.bits != nil {
		return s.bits[uint32(w)>>6]&(1<<(uint32(w)&63)) != 0
	}
	if _, ok := slices.BinarySearch(s.sorted, w); ok {
		return true
	}
	return slices.Contains(s.tail, w)
}

func (s *adjSet) add(w Vertex) {
	if s.bits != nil {
		s.bits[uint32(w)>>6] |= 1 << (uint32(w) & 63)
		return
	}
	s.tail = append(s.tail, w)
	if len(s.tail) >= adjTailCap {
		s.flush()
	}
}

// flush merges the sorted tail into the sorted prefix in place
// (backward merge into grown capacity), leaving the tail empty.
func (s *adjSet) flush() {
	if len(s.tail) == 0 {
		return
	}
	slices.Sort(s.tail)
	na, nb := len(s.sorted), len(s.tail)
	s.sorted = slices.Grow(s.sorted, nb)[:na+nb]
	i, j, k := na-1, nb-1, na+nb-1
	for j >= 0 {
		if i >= 0 && s.sorted[i] > s.tail[j] {
			s.sorted[k] = s.sorted[i]
			i--
		} else {
			s.sorted[k] = s.tail[j]
			j--
		}
		k--
	}
	s.tail = s.tail[:0]
}

// promote switches the set to bitset form over an n-vertex index space.
func (s *adjSet) promote(n int, members []Vertex) {
	s.bits = make([]uint64, (n+63)/64)
	for _, w := range members {
		s.bits[uint32(w)>>6] |= 1 << (uint32(w) & 63)
	}
	s.sorted, s.tail = nil, nil
}

// reset empties the set, retaining allocated capacity and the bitset
// form once promoted.
func (s *adjSet) reset() {
	s.sorted = s.sorted[:0]
	s.tail = s.tail[:0]
	clear(s.bits)
}

// sortedPorts writes the port-order row adj's ports in ascending
// neighbor order into ports: ports[i] = p where adj[p] is the set's
// i-th smallest member. A bitset-form set sorts nothing: it ranks each
// neighbor by the popcount below it plus a per-word prefix count. A
// list-form set sorts its row once as packed (neighbor, port) keys —
// measured faster than merging the tail and binary-searching each
// neighbor's rank at list-form degrees in the hundreds. Both use the
// caller's scratch, returned for reuse.
func (s *adjSet) sortedPorts(adj []Vertex, ports []int32, scratch []uint64) []uint64 {
	if s.bits == nil {
		return ascendingPorts(adj, ports, scratch)
	}
	before := growKeys(scratch, len(s.bits))
	k := 0
	for i, word := range s.bits {
		before[i] = uint64(k)
		k += bits.OnesCount64(word)
	}
	for p, w := range adj {
		i := uint32(w) >> 6
		below := s.bits[i] & (1<<(uint32(w)&63) - 1)
		ports[int(before[i])+bits.OnesCount64(below)] = int32(p)
	}
	return before
}

// Builder assembles a graph incrementally. Edges are appended to both
// endpoints' adjacency lists in call order, which defines the port
// numbering. IDs default to the tight assignment ids[v] = v; override
// with SetID or one of the relabeling helpers before Build.
//
// Edge dedup uses per-vertex sorted adjacency (with a bitset upgrade
// for dense vertices, at Grow time when the degree hint already
// reaches it) instead of a global hash set, so HasEdge is
// allocation-free and generation never touches a map on its hot path.
// A bitset also hands Build the vertex's neighbors in ascending order,
// so building sorts nothing for it.
type Builder struct {
	ids       []int64
	adj       [][]Vertex // port order
	seen      []adjSet   // per-vertex membership, parallel to adj
	nPrime    int64
	edges     int
	bitsetDeg int // promote a vertex's adjSet to bitset at this degree
}

// NewBuilder returns a builder for a graph on n vertices with tight IDs
// (ids[v] = v, n' = n) until changed.
func NewBuilder(n int) *Builder {
	b := &Builder{
		ids:       make([]int64, n),
		adj:       make([][]Vertex, n),
		seen:      make([]adjSet, n),
		nPrime:    int64(n),
		bitsetDeg: max(64, n/64),
	}
	for v := range b.ids {
		b.ids[v] = int64(v)
	}
	return b
}

// N returns the number of vertices under construction.
func (b *Builder) N() int { return len(b.ids) }

// M returns the number of edges added so far.
func (b *Builder) M() int { return b.edges }

// SetID assigns identifier id to vertex v. Uniqueness and range are
// checked at Build time.
func (b *Builder) SetID(v Vertex, id int64) { b.ids[v] = id }

// SetNPrime sets the ID-space bound n'. Build fails if any ID falls
// outside [0, n').
func (b *Builder) SetNPrime(nPrime int64) { b.nPrime = nPrime }

// HasEdge reports whether the edge u-v has been added. It checks the
// smaller endpoint's set: O(log min(deg(u), deg(v))) in list form,
// O(1) once either endpoint is bitset-promoted; never allocates.
func (b *Builder) HasEdge(u, v Vertex) bool {
	if n := Vertex(len(b.ids)); u < 0 || v < 0 || u >= n || v >= n {
		return false
	}
	if b.seen[u].bits != nil || (b.seen[v].bits == nil && len(b.adj[u]) <= len(b.adj[v])) {
		return b.seen[u].has(v)
	}
	return b.seen[v].has(u)
}

// Degree returns the current degree of v.
func (b *Builder) Degree(v Vertex) int { return len(b.adj[v]) }

// addHalf appends w to v's adjacency and membership structures.
func (b *Builder) addHalf(v, w Vertex) {
	b.adj[v] = append(b.adj[v], w)
	s := &b.seen[v]
	if s.bits == nil && len(b.adj[v]) >= b.bitsetDeg {
		s.promote(len(b.ids), b.adj[v])
		return
	}
	s.add(w)
}

// AddEdge adds the undirected edge u-v. It returns an error on
// self-loops, out-of-range endpoints, or duplicate edges.
func (b *Builder) AddEdge(u, v Vertex) error {
	n := Vertex(len(b.ids))
	if u < 0 || v < 0 || u >= n || v >= n {
		return fmt.Errorf("graph: edge %d-%d out of range [0,%d)", u, v, n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	if b.HasEdge(u, v) {
		return fmt.Errorf("graph: duplicate edge %d-%d", u, v)
	}
	b.addKnownNew(u, v)
	return nil
}

// addKnownNew adds u-v without the duplicate/range checks — the fast
// path for generators whose edges are distinct by construction.
func (b *Builder) addKnownNew(u, v Vertex) {
	b.addHalf(u, v)
	b.addHalf(v, u)
	b.edges++
}

// MustAddEdge is AddEdge for generator code where the edge is known
// valid by construction; it panics on error.
func (b *Builder) MustAddEdge(u, v Vertex) {
	if err := b.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// AddCycle adds the Hamiltonian cycle order[0] → order[1] → … →
// order[n-1] → order[0] in one bulk pass, leaving the builder in a
// state byte-equivalent to n sequential MustAddEdge(order[i],
// order[(i+1)%n]) calls: the same per-vertex port order and the same
// membership structures, so anything built on top (RNG-pinned
// generators in particular) cannot tell the difference. Because a
// cycle over a permutation touches each vertex's rows exactly once,
// the fill skips the per-edge duplicate checks entirely and writes
// vertex rows independently, fanned out over parallelBlocks — this is
// PlantedMinDegree's generation prefix, and at n=2^20 it runs several
// times faster than the sequential edge loop even on one core.
//
// The builder must hold no edges yet, and order must be a permutation
// of [0, n) with n ≥ 3 (so the cycle's edges are distinct and
// loop-free by construction).
func (b *Builder) AddCycle(order []int) error {
	n := len(b.ids)
	if b.edges != 0 {
		return fmt.Errorf("graph: AddCycle needs an empty builder, have %d edges", b.edges)
	}
	if n < 3 || len(order) != n {
		return fmt.Errorf("graph: cycle over %d vertices on a %d-vertex builder (need n ≥ 3)", len(order), n)
	}
	// pos is the inverse permutation: pos[v] = v's position in order.
	// It both validates the permutation and lets the fill iterate
	// destination vertices in index order — every b.adj and b.seen row
	// is written in one sequential sweep (the cache-friendly axis at
	// n in the millions), with only the read-only order lookups
	// hopping around.
	pos := make([]int32, n)
	for i := range pos {
		pos[i] = -1
	}
	for i, v := range order {
		if v < 0 || v >= n || pos[v] >= 0 {
			return fmt.Errorf("graph: cycle order is not a permutation of [0,%d)", n)
		}
		pos[v] = int32(i)
	}
	// One shared backing array seeds every list-form vertex's
	// membership tail — each holds exactly the cycle's two incident
	// edges — instead of a per-vertex 2-element allocation (2M tiny
	// allocations at n=2²⁰, the dominant cost of the fill).
	// Three-index slicing caps every window at 2, so a later add
	// reallocates instead of clobbering a neighbor's window, exactly
	// like an organically grown tail. Bitset-form vertices (promoted
	// by Grow) get their two bits set instead.
	var tails []Vertex
	for v := range b.seen {
		if b.seen[v].bits == nil {
			tails = make([]Vertex, 2*n)
			break
		}
	}
	parallelBlocks(n, func(lo, hi Vertex) {
		for v := lo; v < hi; v++ {
			i := int(pos[v])
			prev, next := i-1, i+1
			if i == 0 {
				prev = n - 1
			}
			if i == n-1 {
				next = 0
			}
			p, q := Vertex(order[prev]), Vertex(order[next])
			if i == 0 {
				// The sequential loop reaches order[0] first as the
				// source of its successor edge and only later as the
				// target of the closing edge, so its row reads
				// [next, prev] — every other vertex reads [prev, next].
				p, q = q, p
			}
			b.adj[v] = append(b.adj[v], p, q)
			if s := &b.seen[v]; s.bits != nil {
				s.add(p)
				s.add(q)
				continue
			}
			t := tails[2*int(v) : 2*int(v)+2 : 2*int(v)+2]
			t[0], t[1] = p, q
			b.seen[v].tail = t
		}
	})
	b.edges += n
	return nil
}

// Reset removes every edge while keeping the vertex count, IDs, n',
// and — crucially for retrying generators — the per-vertex slice
// capacity and bitsets already grown, so a restart adds no fresh
// allocations.
func (b *Builder) Reset() {
	for v := range b.adj {
		b.adj[v] = b.adj[v][:0]
		b.seen[v].reset()
	}
	b.edges = 0
}

// Grow pre-allocates every vertex's adjacency list for the given
// expected degree — a capacity hint for generators that know their
// degree profile up front. A hint at or above the bitset threshold
// also promotes every vertex's membership set to its bitset now, which
// costs no more memory than the list it replaces and saves growing a
// sorted list that the first bitsetDeg edges would discard anyway.
func (b *Builder) Grow(deg int) {
	if deg <= 0 {
		return
	}
	for v := range b.adj {
		if cap(b.adj[v]) < deg {
			next := make([]Vertex, len(b.adj[v]), deg)
			copy(next, b.adj[v])
			b.adj[v] = next
		}
		if deg >= b.bitsetDeg && b.seen[v].bits == nil {
			b.seen[v].promote(len(b.ids), b.adj[v])
		}
	}
}

// ShufflePorts randomizes the port order of every adjacency list using
// rng. Algorithms must not depend on generator-specific port order;
// shuffling ports in tests catches such dependencies.
func (b *Builder) ShufflePorts(rng *rand.Rand) {
	for v := range b.adj {
		a := b.adj[v]
		rng.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
	}
}

// Build finalizes the graph. The builder remains usable (the structure
// is copied out into the graph's flat CSR arrays). Edge invariants
// hold by construction (AddEdge enforces them), so Build only has to
// check the ID assignment. Under identity naming each vertex's
// membership set yields the ID->port index directly (see
// adjSet.sortedPorts; no sort at all for a bitset vertex); other
// namings co-sort by ID in the shared derivation.
func (b *Builder) Build() (*Graph, error) {
	if err := validateIDs(b.ids, b.nPrime); err != nil {
		return nil, err
	}
	g := &Graph{ids: slices.Clone(b.ids), nPrime: b.nPrime}
	if err := g.setRows(b.adj); err != nil {
		return nil, err
	}
	var ports []int32
	if identityNaming(g.ids) {
		ports = make([]int32, len(g.nbrs))
		parallelBlocks(len(b.ids), func(lo, hi Vertex) {
			var scratch []uint64
			for v := lo; v < hi; v++ {
				o, e := g.offsets[v], g.offsets[v+1]
				scratch = b.seen[v].sortedPorts(b.adj[v], ports[o:e], scratch)
			}
		})
	}
	g.buildDerived(ports)
	return g, nil
}

// MustBuild is Build for generator code where the construction is known
// valid; it panics on error.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// PermuteIDs assigns IDs that are a uniformly random permutation of
// [0, n), keeping tight naming but decorrelating IDs from indices.
func (b *Builder) PermuteIDs(rng *rand.Rand) {
	perm := rng.Perm(len(b.ids))
	for v := range b.ids {
		b.ids[v] = int64(perm[v])
	}
	b.nPrime = int64(len(b.ids))
}

// Rebuild returns a builder preloaded with g's structure (edges in
// per-vertex port order, IDs and n' copied), ready for relabeling or
// extension.
func Rebuild(g *Graph) *Builder {
	b := NewBuilder(g.N())
	for v := Vertex(0); int(v) < g.N(); v++ {
		for _, w := range g.Adj(v) {
			if v < w {
				b.addKnownNew(v, w)
			}
		}
	}
	for v := Vertex(0); int(v) < g.N(); v++ {
		b.SetID(v, g.ID(v))
	}
	b.SetNPrime(g.NPrime())
	return b
}

// SparseIDs assigns IDs drawn uniformly without replacement from
// [0, factor·n), modeling the paper's loose (polynomial) naming where
// n' may exceed n. factor must be at least 1.
func (b *Builder) SparseIDs(factor int64, rng *rand.Rand) error {
	n := int64(len(b.ids))
	if factor < 1 {
		return fmt.Errorf("graph: sparse ID factor %d < 1", factor)
	}
	space := factor * n
	used := make(map[int64]struct{}, n)
	for v := range b.ids {
		for {
			id := rng.Int64N(space)
			if _, dup := used[id]; !dup {
				used[id] = struct{}{}
				b.ids[v] = id
				break
			}
		}
	}
	b.nPrime = space
	return nil
}
