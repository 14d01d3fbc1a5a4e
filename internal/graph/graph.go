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
// (CSR) form: a single offsets array of n+1 cursors into two flat
// per-arc arrays holding all 2m arcs contiguously — the port-ordered
// neighbor indices (Adj) and, per vertex, the ports of its neighbors
// in ascending ID order (PortOfID and HasEdge binary-search the
// neighbors behind those ports). Both are 4 bytes wide under every
// naming, so an arc costs 8 bytes. Neighbor IDs are never stored per
// arc: NeighborID resolves an Adj entry through the naming (the index
// itself, or the per-vertex ID table), so per-round accesses walk
// cache lines instead of chasing per-vertex slice headers, and a
// 65k-vertex δ=√n graph is a handful of flat arrays rather than
// hundreds of thousands of small allocations.
package graph

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
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
	// Per-vertex ID->port index: idPort[offsets[v]+i] is the port of
	// v's neighbor with the i-th smallest ID, so PortOfID is a binary
	// search over nbrs read through idPort instead of an O(deg) scan.
	idPort []int32
	names  []int64 // ids, or nil under identity naming (ids[v] = v): what neighbor IDs resolve through
	nPrime int64   // ID-space bound n' (all IDs are in [0, n'))
	minDeg int
	maxDeg int
	edges  int
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
// arrays: the CSR offsets and the two per-arc arrays (8 bytes per arc
// under every naming), the ID table, and
// whichever ID→vertex index form this graph carries (dense inverse or
// sorted pairs). It is the eviction weight for graph caches and the
// baseline benchmark memory witnesses subtract.
func (g *Graph) FootprintBytes() int64 {
	return 8*int64(len(g.ids)) +
		4*int64(len(g.idToV)) +
		8*int64(len(g.idKeys)) + 4*int64(len(g.idVerts)) +
		8*int64(len(g.offsets)) +
		4*int64(len(g.nbrs)) + 4*int64(len(g.idPort))
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

// Neighbors returns a copy of the adjacency list of v in port order.
func (g *Graph) Neighbors(v Vertex) []Vertex {
	return slices.Clone(g.Adj(v))
}

// HasEdge reports whether u and v are adjacent: a PortOfID lookup of
// one endpoint's ID at the smaller-degree other endpoint, so
// O(log min(deg(u), deg(v))), allocation-free.
func (g *Graph) HasEdge(u, v Vertex) bool {
	if u == v {
		return false
	}
	if g.Degree(v) < g.Degree(u) {
		u, v = v, u
	}
	return g.PortOfID(u, g.nameOf(v)) >= 0
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

// nameOf returns the ID of vertex w: w itself under identity naming.
func (g *Graph) nameOf(w Vertex) int64 {
	if g.names == nil {
		return int64(w)
	}
	return g.names[w]
}

// NeighborID returns the ID of v's neighbor behind local port p in
// O(1), resolving the Adj entry through the naming instead of a
// stored copy. It is the per-round fast path for the simulator's
// views.
func (g *Graph) NeighborID(v Vertex, p int) int64 { return g.nameOf(g.Neighbor(v, p)) }

// IDsOfNeighbors appends the identifiers of v's neighbors, in port
// order, to dst and returns the extended slice.
func (g *Graph) IDsOfNeighbors(v Vertex, dst []int64) []int64 {
	row := g.Adj(v)
	dst = slices.Grow(dst, len(row))
	for _, w := range row {
		dst = append(dst, g.nameOf(w))
	}
	return dst
}

// PortOfID returns the local port of v leading to the neighbor with
// the given ID, or -1 if v has no such neighbor. It binary-searches
// v's neighbors in ID order — the Adj entries behind v's idPort run —
// in O(log deg(v)).
func (g *Graph) PortOfID(v Vertex, id int64) int {
	if id < 0 || id >= g.nPrime {
		return -1
	}
	o, e := g.offsets[v], g.offsets[v+1]
	row, run := g.nbrs[o:e], g.idPort[o:e]
	i, j := 0, len(run)
	for i < j {
		h := int(uint(i+j) >> 1)
		if g.nameOf(row[run[h]]) < id {
			i = h + 1
		} else {
			j = h
		}
	}
	if i < len(run) && g.nameOf(row[run[i]]) == id {
		return int(run[i])
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
// co-sweep. Each vertex's idPort run is a permutation of its ports by
// construction (buildDerived sorts the row's ports; the binary reader
// checks them for range and duplicates as it scatters a row), so the
// neighbors read through it are exactly the Adj row's multiset, in
// ascending ID order — which the sweep checks strictly, ruling out
// parallel edges. Sweeping sources in ascending ID order (validated
// distinct before the sweep) must then land every arc (v, w) exactly
// on the cursor of w's ID-ordered run. A completed sweep maps each arc
// to a distinct matching run entry — an injection of the arc multiset
// into its own reversal, hence a bijection: the graph is symmetric.
// Every arc advances exactly one cursor inside its run's bounds and
// the totals agree, so all cursors end exactly at their degrees — no
// final pass needed.
func symmetrySweep[C int32 | int64](g *Graph) error {
	n := g.N()
	cur := make([]C, n)
	for v := range cur {
		cur[v] = C(g.offsets[v])
	}
	// Sources in ascending ID order: the dense inverse lists them by
	// ID, the sorted pair index by key.
	order := g.idVerts
	if g.idToV != nil {
		order = g.idToV
	}
	for _, v := range order {
		if v < 0 {
			continue
		}
		o, e := g.offsets[v], g.offsets[v+1]
		prev := int64(-1)
		for _, p := range g.idPort[o:e] {
			w := g.nbrs[o+int64(p)]
			if w == Vertex(v) {
				return fmt.Errorf("graph: self-loop at vertex %d", v)
			}
			if int(w) < 0 || int(w) >= n {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", v, w)
			}
			id := g.nameOf(w)
			if id <= prev {
				return fmt.Errorf("graph: parallel edge %d-%d", v, w)
			}
			prev = id
			c := int64(cur[w])
			if c >= g.offsets[w+1] || g.nbrs[g.offsets[w]+int64(g.idPort[c])] != Vertex(v) {
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

// buildDerived computes every derived field of a graph whose ids,
// offsets, nbrs and nPrime fields are populated: a fresh stamp, the
// naming (recorded once here, read by the ID lookups and the binary
// writers), the ID index, degree extremes and edge count, and the
// ID->port index. ports, when non-nil, is the rows' ports in ascending
// neighbor-index order, already known to the binary reader and to a
// Builder's membership sets; buildDerived takes ownership of it. Under
// identity naming index order is ID order, so ports IS the ID->port
// index and nothing is sorted; otherwise each row's ports co-sort by
// neighbor ID (overwriting ports in place, which the co-sort never
// reads). The
// per-vertex sorts fan out over vertex blocks and run as flat uint64
// key sorts whenever the ID and port widths pack into one word (they
// do for every graph the parsers accept), so deserializing or building
// a 33M-arc graph spends fractions of a core-second here. None of this
// touches an RNG: generator draw sequences are byte-identical at any
// GOMAXPROCS.
func (g *Graph) buildDerived(ports []int32) {
	g.stamp = nextStamp.Add(1)
	g.names = nil
	if !identityNaming(g.ids) {
		g.names = g.ids
	}
	g.buildIDIndex()
	g.computeDegreeStats()
	g.idPort = ports
	if ports != nil && g.names == nil {
		return
	}
	if ports == nil {
		g.idPort = make([]int32, len(g.nbrs))
	}
	kp := g.idPortKeys()
	parallelBlocks(len(g.ids), func(lo, hi Vertex) {
		var keys []uint64 // this block's key scratch, one vertex at a time
		for v := lo; v < hi; v++ {
			keys = g.coSortIDPort(g.offsets[v], g.offsets[v+1], kp, keys)
		}
	})
}

// identityNaming reports whether ids[v] = v for every vertex.
func identityNaming(ids []int64) bool {
	for v, id := range ids {
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

// keyPacking is the layout of the (ID, port) co-sort keys: with
// packed set, a key is ID<<portBits | port in one uint64; otherwise
// the co-sort falls back to a comparison sort of the ports.
type keyPacking struct {
	packed   bool
	portBits int
	portMask uint64
}

// idPortKeys decides the packed-key layout for the (ID, port)
// co-sorts: packed when the ID and port widths fit one uint64 key.
// Must run after computeDegreeStats (portBits derives from the maximum
// degree).
func (g *Graph) idPortKeys() keyPacking {
	portBits := bits.Len(uint(max(g.maxDeg-1, 0)))
	idBits := bits.Len64(uint64(max(g.nPrime-1, 0)))
	return keyPacking{
		packed:   idBits+portBits <= 63,
		portBits: portBits,
		portMask: uint64(1)<<portBits - 1,
	}
}

// growKeys returns key scratch of length n, reusing ks's capacity.
// Each derivation block keeps one, sized by the largest degree it has
// met, so the keys never cost a per-arc array.
func growKeys(ks []uint64, n int) []uint64 {
	if cap(ks) < n {
		return make([]uint64, n, max(n, 2*cap(ks)))
	}
	return ks[:n]
}

// ascendingPorts writes row's ports in ascending neighbor-index order
// into ports — ports[i] is the port behind row's i-th smallest entry —
// by one sort of packed (index, port) keys in the scratch keys, which
// it returns for reuse. uint32 round-trips negative (invalid) indices
// exactly; they merely sort high.
func ascendingPorts(row []Vertex, ports []int32, keys []uint64) []uint64 {
	keys = growKeys(keys, len(row))
	for p, w := range row {
		keys[p] = uint64(uint32(w))<<32 | uint64(p)
	}
	slices.Sort(keys)
	for i, k := range keys {
		ports[i] = int32(uint32(k))
	}
	return keys
}

// idOf returns the ID of vertex w, or NoID when w is out of range
// (left for Validate to report).
func (g *Graph) idOf(w Vertex) int64 {
	if int(w) >= 0 && int(w) < len(g.ids) {
		return g.ids[w]
	}
	return NoID
}

// coSortIDPort builds the ID->port index run [o, e): the ascending
// ports under identity naming, otherwise a co-sort of the row's
// neighbor IDs with their ports — as packed uint64 keys in the scratch
// keys when kp.packed, by a comparison sort of the ports otherwise.
// Invalid rows (neighbors out of range) may sort garbage keys; the
// result only has to be a deterministic permutation of the ports,
// because Validate rejects such graphs before anyone queries the
// index. It returns the (possibly grown) scratch.
func (g *Graph) coSortIDPort(o, e int64, kp keyPacking, keys []uint64) []uint64 {
	row, run := g.nbrs[o:e], g.idPort[o:e]
	switch {
	case g.names == nil:
		return ascendingPorts(row, run, keys)
	case !kp.packed:
		for p := range run {
			run[p] = int32(p)
		}
		slices.SortFunc(run, func(a, b int32) int { return cmp.Compare(g.idOf(row[a]), g.idOf(row[b])) })
		return keys
	}
	keys = growKeys(keys, len(row))
	for p, w := range row {
		keys[p] = uint64(g.idOf(w))<<kp.portBits | uint64(p)
	}
	slices.Sort(keys)
	for i, k := range keys {
		run[i] = int32(k & kp.portMask)
	}
	return keys
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
	g.idVerts = make([]int32, n)
	for v := range g.idVerts {
		g.idVerts[v] = int32(v)
	}
	slices.SortFunc(g.idVerts, func(a, b int32) int { return cmp.Compare(g.ids[a], g.ids[b]) })
	g.idKeys = make([]int64, n)
	for i, v := range g.idVerts {
		g.idKeys[i] = g.ids[v]
	}
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
	g.buildDerived(nil)
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// fromCSR constructs and validates a graph from already-flat CSR
// arrays, taking ownership of every slice — the deserializers' path,
// which skips the per-row copies of FromAdjacency. offsets must have
// len(ids)+1 monotone entries with offsets[len(ids)] == len(nbrs).
// ports is nil (the text reader) or, per row, the ports in ascending
// neighbor-index order as a checked permutation of the row's ports
// (the binary readers, which decode exactly that); see buildDerived.
// Validate's sweep re-checks the order it implies.
func fromCSR(ids []int64, offsets []int64, nbrs []Vertex, ports []int32, nPrime int64) (*Graph, error) {
	g := &Graph{ids: ids, offsets: offsets, nbrs: nbrs, nPrime: nPrime}
	g.buildDerived(ports)
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	ng := &Graph{
		ids:     slices.Clone(g.ids),
		offsets: slices.Clone(g.offsets),
		nbrs:    slices.Clone(g.nbrs),
		nPrime:  g.nPrime,
	}
	ng.buildDerived(nil)
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
