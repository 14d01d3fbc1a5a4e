// Package graph provides the static graph substrate used by the
// rendezvous simulator: undirected simple graphs with unique vertex
// identifiers, explicit local port numberings, generators for the graph
// families used throughout the paper "Fast Neighborhood Rendezvous"
// (Eguchi, Kitamura, Izumi; ICDCS 2020), and serialization in three
// formats (v1 text, v2 binary, v3 chunked binary; see io.go).
//
// Vertices carry two independent namespaces:
//
//   - the internal index (type Vertex), a dense [0, N) range used by the
//     simulator and all algorithms' internal bookkeeping, and
//   - the identifier (int64 ID), the value visible to agents. IDs are
//     distinct integers in [0, n'), where n' is the ID-space bound the
//     paper calls n′ (agents know n′; "tight naming" means n' = O(n)).
//
// The local port numbering of a vertex v is the order of its adjacency
// list: port p of v leads to Adj(v)[p]. This is the paper's true port
// mapping P̂_v. Whether agents may translate ports to neighbor IDs (the
// accessible mapping P_v equals P̂_v, the KT1-style assumption) is a
// property of the simulation, not of the graph.
//
// # Memory layout
//
// A Graph stores its adjacency structure in compressed sparse row
// (CSR) form: a single offsets array of n+1 cursors into flat backing
// arrays holding all 2m arcs contiguously. Five parallel per-arc
// arrays share the one offsets table — the port-ordered neighbor
// indices (Adj), the per-vertex ascending neighbor indices (HasEdge),
// the port-ordered neighbor IDs (NeighborIDList), and the per-vertex
// ID-sorted (ID, port) index (PortOfID). Adj and NeighborIDList
// therefore return zero-copy subslices of contiguous memory, per-round
// accesses walk cache lines instead of chasing per-vertex slice
// headers, and a 65k-vertex δ=√n graph is a handful of flat arrays
// rather than hundreds of thousands of small allocations.
package graph

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync/atomic"
)

// Vertex is a dense internal vertex index in [0, N).
type Vertex int32

// NilVertex is the sentinel "no vertex" value.
const NilVertex Vertex = -1

// NoID is the sentinel identifier meaning "unassigned".
const NoID int64 = -1

// Graph is an immutable undirected simple graph with unique vertex IDs
// and a fixed port numbering. Construct one with a Builder or one of the
// generators; a zero Graph is empty and unusable.
type Graph struct {
	ids []int64 // index -> identifier
	// Identifier -> index, in one of two map-free forms: under tight
	// naming (n' ≤ 4n) idToV is the dense inverse of ids (-1 = no
	// vertex) and VertexByID is one bounds-checked array load;
	// otherwise idKeys/idVerts hold the (ID, vertex) pairs sorted by ID
	// and VertexByID is a binary search. Exactly one form is non-nil.
	idToV   []int32
	idKeys  []int64
	idVerts []int32
	// CSR adjacency: vertex v's arcs live at positions
	// [offsets[v], offsets[v+1]) of every flat per-arc array below.
	// Offsets are int64 so the arc space is bounded by memory, not by
	// the 2^31 cap of the int32 seed layout; Vertex itself stays int32
	// (n ≤ maxReasonableN), so the per-arc arrays keep their width.
	offsets []int64
	nbrs    []Vertex // port order: nbrs[offsets[v]+p] = neighbor of v behind port p
	sorted  []Vertex // per-vertex ascending, for HasEdge binary search
	nbrIDs  []int64  // port order: nbrIDs[offsets[v]+p] = ID(nbrs[offsets[v]+p])
	// Per-vertex ID->port index: idSorted holds v's neighbor IDs
	// ascending, idPort the matching ports, so PortOfID is a binary
	// search instead of an O(deg) scan.
	idSorted []int64
	idPort   []int32
	nPrime   int64 // ID-space bound n' (all IDs are in [0, n'))
	minDeg   int
	maxDeg   int
	edges    int
	// stamp is a process-unique identity assigned at construction.
	// Graphs are immutable, so two equal stamps guarantee identical
	// structure — the key algorithm scratch uses to carry
	// graph-derived caches (e.g. port lookups) across trials.
	stamp uint64
}

// nextStamp issues process-unique graph identities; 0 is reserved as
// "no graph" so zero-valued contexts never match a cache key.
var nextStamp atomic.Uint64

// Stamp returns the graph's process-unique construction identity:
// never 0 for any constructed graph, whether built, generated, cloned
// or read in any format. Equal stamps imply the same immutable graph,
// letting per-agent scratch reuse graph-derived caches across trials
// without structural comparison.
func (g *Graph) Stamp() uint64 { return g.stamp }

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.ids) }

// FootprintBytes reports the retained size of the graph's backing
// arrays: the CSR offsets and five parallel per-arc arrays, the ID
// table, and whichever ID→vertex index form this graph carries (dense
// inverse or sorted pairs). It is the eviction weight for graph
// caches and the baseline benchmark memory witnesses subtract.
func (g *Graph) FootprintBytes() int64 {
	return 8*int64(len(g.ids)) +
		4*int64(len(g.idToV)) +
		8*int64(len(g.idKeys)) + 4*int64(len(g.idVerts)) +
		8*int64(len(g.offsets)) +
		4*int64(len(g.nbrs)) + 4*int64(len(g.sorted)) +
		8*int64(len(g.nbrIDs)) +
		8*int64(len(g.idSorted)) + 4*int64(len(g.idPort))
}

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.edges }

// NPrime returns the ID-space bound n': every vertex ID lies in [0, n').
func (g *Graph) NPrime() int64 { return g.nPrime }

// MinDegree returns δ(G), the minimum vertex degree.
func (g *Graph) MinDegree() int { return g.minDeg }

// MaxDegree returns ∆(G), the maximum vertex degree.
func (g *Graph) MaxDegree() int { return g.maxDeg }

// ID returns the identifier of vertex v.
func (g *Graph) ID(v Vertex) int64 { return g.ids[v] }

// VertexByID returns the vertex with the given identifier. It is
// allocation-free: O(1) under tight naming (a dense inverse array),
// O(log n) otherwise (binary search of the sorted ID index).
func (g *Graph) VertexByID(id int64) (Vertex, bool) {
	if g.idToV != nil {
		if id < 0 || id >= int64(len(g.idToV)) {
			return NilVertex, false
		}
		if v := g.idToV[id]; v >= 0 {
			return Vertex(v), true
		}
		return NilVertex, false
	}
	if i, ok := slices.BinarySearch(g.idKeys, id); ok {
		return Vertex(g.idVerts[i]), true
	}
	return NilVertex, false
}

// Degree returns the degree of v.
func (g *Graph) Degree(v Vertex) int { return int(g.offsets[v+1] - g.offsets[v]) }

// Neighbor returns the neighbor of v behind local port p.
func (g *Graph) Neighbor(v Vertex, p int) Vertex { return g.nbrs[int(g.offsets[v])+p] }

// Adj returns the adjacency list of v in port order: a zero-copy
// subslice of the graph's flat arc array. The returned slice is shared
// with the graph and must not be modified; use Neighbors for an owned
// copy.
func (g *Graph) Adj(v Vertex) []Vertex {
	return g.nbrs[g.offsets[v]:g.offsets[v+1]:g.offsets[v+1]]
}

// sortedAdj returns v's neighbors in ascending vertex order (shared,
// read-only).
func (g *Graph) sortedAdj(v Vertex) []Vertex {
	return g.sorted[g.offsets[v]:g.offsets[v+1]]
}

// Neighbors returns a copy of the adjacency list of v in port order.
func (g *Graph) Neighbors(v Vertex) []Vertex {
	return slices.Clone(g.Adj(v))
}

// HasEdge reports whether u and v are adjacent. It binary-searches the
// smaller endpoint's sorted neighbor run: O(log min(deg(u), deg(v))),
// allocation-free.
func (g *Graph) HasEdge(u, v Vertex) bool {
	if u == v {
		return false
	}
	a := g.sortedAdj(u)
	if g.Degree(v) < len(a) {
		a, v = g.sortedAdj(v), u
	}
	_, ok := slices.BinarySearch(a, v)
	return ok
}

// PortTo returns the local port of u leading to v, or -1 if u and v are
// not adjacent. It runs in O(deg(u)).
func (g *Graph) PortTo(u, v Vertex) int {
	for p, w := range g.Adj(u) {
		if w == v {
			return p
		}
	}
	return -1
}

// IDsOfNeighbors appends the identifiers of v's neighbors, in port
// order, to dst and returns the extended slice.
func (g *Graph) IDsOfNeighbors(v Vertex, dst []int64) []int64 {
	return append(dst, g.NeighborIDList(v)...)
}

// NeighborIDList returns the identifiers of v's neighbors in port
// order as a slice shared with the graph — no copy, so it is the
// per-round fast path for the simulator's views. Callers must treat
// it as read-only: the graph is immutable and the slice is shared by
// every concurrent run on it.
func (g *Graph) NeighborIDList(v Vertex) []int64 {
	return g.nbrIDs[g.offsets[v]:g.offsets[v+1]:g.offsets[v+1]]
}

// PortOfID returns the local port of v leading to the neighbor with
// the given ID, or -1 if v has no such neighbor. It runs in
// O(log deg(v)).
func (g *Graph) PortOfID(v Vertex, id int64) int {
	s := g.idSorted[g.offsets[v]:g.offsets[v+1]]
	if i, ok := slices.BinarySearch(s, id); ok {
		return int(g.idPort[int(g.offsets[v])+i])
	}
	return -1
}

// Validate checks the structural invariants of the graph: symmetric
// adjacency, no self-loops, no parallel edges, distinct in-range IDs.
// Graphs produced by a Builder or the generators always validate; the
// method exists for graphs decoded from untrusted input and for tests.
// Symmetry is established by one sequential linear sweep (see below)
// instead of a binary search per arc, so validating a 33M-arc
// deserialized graph costs a fraction of a core-second instead of
// several.
func (g *Graph) Validate() error {
	if err := g.validateIDsIndexed(); err != nil {
		return err
	}
	if len(g.nbrs)%2 != 0 {
		return errors.New("graph: odd total arc count")
	}
	if len(g.nbrs)/2 != g.edges {
		return fmt.Errorf("graph: edge count %d does not match recorded %d", len(g.nbrs)/2, g.edges)
	}
	// Symmetry by one linear cursor co-sweep instead of a binary
	// search per arc (see symmetrySweep). The cursor array is the
	// validation's only allocation; int32 cursors suffice whenever the
	// arc indices fit, which keeps the transient footprint of
	// validating a streamed million-vertex graph at 4 bytes per vertex
	// (the read path's O(chunk) memory bound counts this).
	if int64(len(g.nbrs)) <= math.MaxInt32 {
		return symmetrySweep[int32](g)
	}
	return symmetrySweep[int64](g)
}

// symmetrySweep proves the graph symmetric with one linear cursor
// co-sweep. Every graph construction guarantees structurally that each
// sorted run holds the same multiset as its Adj row (buildDerived
// sorts the row's copy; the binary reader scatters the run through a
// checked port permutation; Builder.Build sorts the row's copy or
// reads the run off the bitset it kept beside the row), so sweeping
// sources in ascending order must land every arc (v, w) exactly on the cursor of w's sorted run.
// A completed sweep maps each arc to a distinct matching run entry —
// an injection of the arc multiset into its own reversal, hence a
// bijection: the graph is symmetric. Every arc advances exactly one
// cursor inside its run's bounds and the totals agree, so all cursors
// end exactly at their degrees — no final pass needed.
func symmetrySweep[C int32 | int64](g *Graph) error {
	n := g.N()
	cur := make([]C, n)
	for v := range cur {
		cur[v] = C(g.offsets[v])
	}
	for v := Vertex(0); int(v) < n; v++ {
		s := g.sortedAdj(v)
		for i, w := range s {
			if w == v {
				return fmt.Errorf("graph: self-loop at vertex %d", v)
			}
			if int(w) < 0 || int(w) >= n {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", v, w)
			}
			if i > 0 && w == s[i-1] {
				return fmt.Errorf("graph: parallel edge %d-%d", v, w)
			}
		}
		for _, w := range g.Adj(v) {
			c := int64(cur[w])
			if c >= g.offsets[w+1] || g.sorted[c] != v {
				return fmt.Errorf("graph: edge %d-%d is not symmetric", v, w)
			}
			cur[w] = C(c + 1)
		}
	}
	return nil
}

// validateIDsIndexed checks that the graph's IDs are distinct and lie
// in [0, n') by reading the ID index buildIDIndex already constructed
// — the dense inverse detects a duplicate as a vertex the
// last-one-wins fill overwrote, the sorted pair index as adjacent
// equal keys — so no per-validation map is built (a 1M-vertex map
// cost more transient memory than the streaming decoder it ran
// under). Falls back to the map for index-less graphs (none today).
func (g *Graph) validateIDsIndexed() error {
	if int64(len(g.ids)) > g.nPrime {
		return fmt.Errorf("graph: n=%d exceeds ID space n'=%d", len(g.ids), g.nPrime)
	}
	switch {
	case g.idToV != nil:
		for v, id := range g.ids {
			if id < 0 || id >= g.nPrime {
				return fmt.Errorf("graph: vertex %d has ID %d outside [0, %d)", v, id, g.nPrime)
			}
			if w := Vertex(g.idToV[id]); w != Vertex(v) {
				return fmt.Errorf("graph: vertices %d and %d share ID %d", min(w, Vertex(v)), max(w, Vertex(v)), id)
			}
		}
	case g.idKeys != nil:
		for v, id := range g.ids {
			if id < 0 || id >= g.nPrime {
				return fmt.Errorf("graph: vertex %d has ID %d outside [0, %d)", v, id, g.nPrime)
			}
		}
		for i := 1; i < len(g.idKeys); i++ {
			if g.idKeys[i] == g.idKeys[i-1] {
				a, b := Vertex(g.idVerts[i-1]), Vertex(g.idVerts[i])
				return fmt.Errorf("graph: vertices %d and %d share ID %d", min(a, b), max(a, b), g.idKeys[i])
			}
		}
	default:
		return validateIDs(g.ids, g.nPrime)
	}
	return nil
}

// validateIDs checks that ids are distinct and lie in [0, nPrime).
func validateIDs(ids []int64, nPrime int64) error {
	if int64(len(ids)) > nPrime {
		return fmt.Errorf("graph: n=%d exceeds ID space n'=%d", len(ids), nPrime)
	}
	seen := make(map[int64]Vertex, len(ids))
	for v, id := range ids {
		if id < 0 || id >= nPrime {
			return fmt.Errorf("graph: vertex %d has ID %d outside [0, %d)", v, id, nPrime)
		}
		if prev, dup := seen[id]; dup {
			return fmt.Errorf("graph: vertices %d and %d share ID %d", prev, v, id)
		}
		seen[id] = Vertex(v)
	}
	return nil
}

// setRows fills the CSR offsets and port-ordered neighbor array from
// per-vertex rows. Rows are copied; out-of-range entries are preserved
// verbatim (Validate reports them). Offsets are int64, so the arc
// count is bounded only by memory — the seed-era 2^31 cap now lives
// solely in the v1/v2 serialization formats (see io.go).
func (g *Graph) setRows(rows [][]Vertex) error {
	n := len(rows)
	var arcs int64
	for _, row := range rows {
		arcs += int64(len(row))
	}
	g.offsets = make([]int64, n+1)
	g.nbrs = make([]Vertex, 0, arcs)
	for v, row := range rows {
		g.offsets[v] = int64(len(g.nbrs))
		g.nbrs = append(g.nbrs, row...)
	}
	g.offsets[n] = int64(len(g.nbrs))
	return nil
}

// idPortSorter sorts a vertex's (neighbor ID, port) pairs by ID.
type idPortSorter struct {
	ids   []int64
	ports []int32
}

func (s idPortSorter) Len() int           { return len(s.ids) }
func (s idPortSorter) Less(i, j int) bool { return s.ids[i] < s.ids[j] }
func (s idPortSorter) Swap(i, j int) {
	s.ids[i], s.ids[j] = s.ids[j], s.ids[i]
	s.ports[i], s.ports[j] = s.ports[j], s.ports[i]
}

// buildDerived computes every derived field of a graph whose ids,
// offsets, nbrs and nPrime fields are populated: the ID index, degree
// extremes and edge count, and the three remaining flat per-arc arrays
// (sorted adjacency, neighbor IDs, ID->port index). Per-vertex
// assembly — the sorts in particular — fans out over vertex blocks,
// and the (ID, port) co-sort runs as a single flat uint64 sort per
// vertex whenever the ID and port widths pack into one word (they do
// for every graph the parsers accept), so deserializing or building a
// 33M-arc graph spends fractions of a core-second here instead of
// several. None of this touches an RNG: generator draw sequences are
// byte-identical at any GOMAXPROCS.
func (g *Graph) buildDerived() {
	n := len(g.ids)
	arcs := len(g.nbrs)
	g.stamp = nextStamp.Add(1)
	g.buildIDIndex()
	g.computeDegreeStats()

	g.nbrIDs = make([]int64, arcs)
	g.idSorted = make([]int64, arcs)

	// Tight identity naming (ids[v] = v, every generator's default)
	// means ID order equals index order, so ONE packed sort per vertex
	// on (neighbor index, port) keys yields sorted, idSorted and
	// idPort together — measurably faster than an int32 sort plus a
	// second co-sort, and far faster than the seed's interface-based
	// sort.Sort. Under other labelings sorted gets its own int32 sort
	// and the (ID, port) pairs co-sort as packed uint64 keys when the
	// ID and port widths fit 63 bits together (they do for every graph
	// the parsers accept), falling back to the interface sort for
	// astronomically sparse namings. Invalid inputs (IDs or neighbors
	// out of range) may pack garbage keys; buildDerived only has to be
	// deterministic on them, not meaningful, because Validate rejects
	// such graphs before anyone queries the index.
	g.sorted = make([]Vertex, arcs)
	g.idPort = make([]int32, arcs)
	identity := g.identityIDs()
	keys, portBits, portMask := g.idPortKeys(identity)

	parallelBlocks(n, func(lo, hi Vertex) {
		for v := lo; v < hi; v++ {
			o, e := g.offsets[v], g.offsets[v+1]
			idRun := g.nbrIDs[o:e]
			if identity {
				// Keys are (index << portBits) | port: the index fits
				// 32 bits (Vertex is int32) and portBits ≤ 31, so the
				// key always fits. uint32 round-trips negative
				// (invalid) indices exactly; they merely sort high.
				ks := keys[o:e]
				for p, w := range g.nbrs[o:e] {
					ks[p] = uint64(uint32(w))<<portBits | uint64(p)
					if int(w) >= 0 && int(w) < n {
						idRun[p] = int64(w)
					} else {
						idRun[p] = NoID
					}
				}
				slices.Sort(ks)
				for i, k := range ks {
					w := Vertex(int32(uint32(k >> portBits)))
					g.sorted[int(o)+i] = w
					g.idSorted[int(o)+i] = int64(w)
					g.idPort[int(o)+i] = int32(k & portMask)
				}
				continue
			}
			// Sorted adjacency: copy this vertex's run and sort it.
			sortRun := g.sorted[o:e]
			copy(sortRun, g.nbrs[o:e])
			slices.Sort(sortRun)
			// Port-ordered neighbor IDs (out-of-range neighbors map to
			// NoID and are left for Validate to report).
			for i, w := range g.nbrs[o:e] {
				if int(w) >= 0 && int(w) < n {
					idRun[i] = g.ids[w]
				} else {
					idRun[i] = NoID
				}
			}
			g.coSortIDPort(o, e, keys, portBits, portMask)
		}
	})
}

// identityIDs reports whether the graph uses the identity labeling
// ids[v] = v.
func (g *Graph) identityIDs() bool {
	for v, id := range g.ids {
		if id != int64(v) {
			return false
		}
	}
	return true
}

// computeDegreeStats fills the degree extremes and edge count from the
// populated offsets.
func (g *Graph) computeDegreeStats() {
	g.minDeg, g.maxDeg = 0, 0
	for v := Vertex(0); int(v) < len(g.ids); v++ {
		d := g.Degree(v)
		if v == 0 || d < g.minDeg {
			g.minDeg = d
		}
		if d > g.maxDeg {
			g.maxDeg = d
		}
	}
	g.edges = len(g.nbrs) / 2
}

// idPortKeys decides the packed-key representation for the (ID, port)
// co-sorts: a shared scratch array plus the bit split when the ID and
// port widths fit one uint64 key (always, under identity naming — the
// key packs the 32-bit index instead of the ID), nil keys to select
// the interface-sort fallback otherwise. Must run after
// computeDegreeStats (portBits derives from the maximum degree).
func (g *Graph) idPortKeys(identity bool) (keys []uint64, portBits int, portMask uint64) {
	portBits = bits.Len(uint(max(g.maxDeg-1, 0)))
	portMask = uint64(1)<<portBits - 1
	idBits := bits.Len64(uint64(max(g.nPrime-1, 0)))
	if identity || idBits+portBits <= 63 {
		keys = make([]uint64, len(g.nbrs))
	}
	return keys, portBits, portMask
}

// coSortIDPort builds the ID->port index run [o, e) by co-sorting the
// already-filled nbrIDs run with its ports — as packed uint64 keys
// when keys is non-nil, through the interface sort otherwise.
func (g *Graph) coSortIDPort(o, e int64, keys []uint64, portBits int, portMask uint64) {
	idRun := g.nbrIDs[o:e]
	if keys != nil {
		ks := keys[o:e]
		for p, id := range idRun {
			ks[p] = uint64(id)<<portBits | uint64(p)
		}
		slices.Sort(ks)
		for i, k := range ks {
			g.idSorted[int(o)+i] = int64(k >> portBits)
			g.idPort[int(o)+i] = int32(k & portMask)
		}
		return
	}
	copy(g.idSorted[o:e], idRun)
	run := g.idPort[o:e]
	for p := range run {
		run[p] = int32(p)
	}
	sort.Sort(idPortSorter{ids: g.idSorted[o:e], ports: run})
}

// buildIDIndex builds the map-free identifier -> index structure: the
// dense inverse array when the naming is tight enough that it costs
// O(n) memory (n' ≤ 4n), the ID-sorted pair index otherwise. IDs
// outside [0, n') or duplicated are tolerated here (last one wins in
// the dense form) — Validate is what rejects them.
func (g *Graph) buildIDIndex() {
	n := len(g.ids)
	g.idToV, g.idKeys, g.idVerts = nil, nil, nil
	if n > 0 && g.nPrime >= 0 && g.nPrime <= int64(4*n) {
		g.idToV = make([]int32, g.nPrime)
		for i := range g.idToV {
			g.idToV[i] = -1
		}
		for v, id := range g.ids {
			if id >= 0 && id < int64(len(g.idToV)) {
				g.idToV[id] = int32(v)
			}
		}
		return
	}
	g.idKeys = make([]int64, n)
	g.idVerts = make([]int32, n)
	copy(g.idKeys, g.ids)
	for v := range g.idVerts {
		g.idVerts[v] = int32(v)
	}
	sort.Sort(idPortSorter{ids: g.idKeys, ports: g.idVerts})
}

// FromAdjacency constructs a graph directly from an ID table and an
// adjacency structure (which fixes the port numbering verbatim). The
// input slices are copied into the graph's flat CSR arrays. It returns
// an error if the structure is not a simple undirected graph with
// distinct IDs in [0, nPrime).
func FromAdjacency(ids []int64, adj [][]Vertex, nPrime int64) (*Graph, error) {
	if len(ids) != len(adj) {
		return nil, fmt.Errorf("graph: %d IDs for %d adjacency rows", len(ids), len(adj))
	}
	g := &Graph{ids: slices.Clone(ids), nPrime: nPrime}
	if err := g.setRows(adj); err != nil {
		return nil, err
	}
	g.buildDerived()
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// fromCSR constructs and validates a graph from already-flat CSR
// arrays, taking ownership of the slices — the text deserializer's
// path, which skips the per-row copies of FromAdjacency. offsets must
// have len(ids)+1 monotone entries with offsets[len(ids)] ==
// len(nbrs).
func fromCSR(ids []int64, offsets []int64, nbrs []Vertex, nPrime int64) (*Graph, error) {
	g := &Graph{ids: ids, offsets: offsets, nbrs: nbrs, nPrime: nPrime}
	g.buildDerived()
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// fromCSRSorted constructs and validates a graph from the binary
// reader's arrays: per-vertex ascending neighbor runs plus the
// sorted-position -> port permutation (ports[i] is the local port
// behind which run entry i sits). The port-order adjacency is rebuilt
// by scattering each run through its ports — rejecting out-of-range
// and duplicate ports, so the rebuilt rows provably hold exactly the
// runs' multisets — and nothing needs sorting. Takes ownership of all
// slices (ports becomes the idPort index under identity naming). The
// caller must have checked that every run is strictly ascending with
// entries in [0, len(ids)).
func fromCSRSorted(ids []int64, offsets []int64, sorted []Vertex, ports []int32, nPrime int64) (*Graph, error) {
	n := len(ids)
	nbrs := make([]Vertex, len(sorted))
	for i := range nbrs {
		nbrs[i] = NilVertex
	}
	for v := 0; v < n; v++ {
		o, e := offsets[v], offsets[v+1]
		deg := e - o
		for i := o; i < e; i++ {
			p := int64(ports[i])
			if p < 0 || p >= deg {
				return nil, fmt.Errorf("graph: vertex %d has port %d outside [0,%d)", v, p, deg)
			}
			if nbrs[o+p] != NilVertex {
				return nil, fmt.Errorf("graph: vertex %d lists port %d twice", v, p)
			}
			nbrs[o+p] = sorted[i]
		}
	}
	g := &Graph{ids: ids, offsets: offsets, nbrs: nbrs, sorted: sorted, nPrime: nPrime}
	g.buildDerivedPresorted(ports)
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// buildDerivedPresorted is the counterpart of buildDerived for graphs
// whose sorted adjacency (already in g) and sorted->port permutation
// are known up front — the binary reader's payload, or a Builder's
// membership sets: under identity naming nothing needs sorting at all
// — ports IS the ID->port index — and under other labelings only the
// ID co-sort remains.
func (g *Graph) buildDerivedPresorted(ports []int32) {
	n := len(g.ids)
	arcs := len(g.nbrs)
	g.stamp = nextStamp.Add(1)
	g.buildIDIndex()
	g.computeDegreeStats()
	g.nbrIDs = make([]int64, arcs)
	g.idSorted = make([]int64, arcs)
	if g.identityIDs() {
		g.idPort = ports
		parallelBlocks(n, func(lo, hi Vertex) {
			for i := g.offsets[lo]; i < g.offsets[hi]; i++ {
				g.idSorted[i] = int64(g.sorted[i])
				g.nbrIDs[i] = int64(g.nbrs[i])
			}
		})
		return
	}
	g.idPort = make([]int32, arcs)
	keys, portBits, portMask := g.idPortKeys(false)
	parallelBlocks(n, func(lo, hi Vertex) {
		for v := lo; v < hi; v++ {
			o, e := g.offsets[v], g.offsets[v+1]
			idRun := g.nbrIDs[o:e]
			for i, w := range g.nbrs[o:e] {
				idRun[i] = g.ids[w]
			}
			g.coSortIDPort(o, e, keys, portBits, portMask)
		}
	})
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	ng := &Graph{
		ids:     slices.Clone(g.ids),
		offsets: slices.Clone(g.offsets),
		nbrs:    slices.Clone(g.nbrs),
		nPrime:  g.nPrime,
	}
	ng.buildDerived()
	return ng
}

// Equal reports whether g and h have identical vertex IDs, ID-space
// bounds, and adjacency lists (including port order).
func (g *Graph) Equal(h *Graph) bool {
	return g.N() == h.N() && g.nPrime == h.nPrime &&
		slices.Equal(g.ids, h.ids) &&
		slices.Equal(g.offsets, h.offsets) &&
		slices.Equal(g.nbrs, h.nbrs)
}

// String returns a short human-readable summary, not the full structure.
func (g *Graph) String() string {
	return fmt.Sprintf("graph(n=%d m=%d δ=%d ∆=%d n'=%d)", g.N(), g.M(), g.minDeg, g.maxDeg, g.nPrime)
}
