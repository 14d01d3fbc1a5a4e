package graph

import (
	"bufio"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
)

// TestWideOffsetsBoundaryRoundTrip proves the 64-bit CSR core end to
// end at the old int32 boundary: the complete graph on n = 46342
// vertices has n·(n−1) = 2,147,745,222 arcs — just past 2³¹−1, the
// seed layout's hard cap — and must build, digest, serialize through
// the v3 streaming format, and decode back to an identical topology,
// while the v1 text writer rejects it loudly.
//
// The instance holds ~17 GB of CSR arrays and ~8 GB of serialized
// bytes, so the test is gated: set FNR_WIDE_BOUNDARY=1 to run it
// (needs ~80 GB of RAM headroom, ~10 GB of free temp disk, and a few
// minutes of single-core time). CI exercises the same decode path at
// bounded size instead: TestReadV3StreamingAllocs, and the huge-smoke
// job's 2^20-vertex graphgen write and read.
func TestWideOffsetsBoundaryRoundTrip(t *testing.T) {
	if os.Getenv("FNR_WIDE_BOUNDARY") == "" {
		t.Skip("set FNR_WIDE_BOUNDARY=1 to run (~80 GB RAM, ~10 GB disk)")
	}
	// Two graphs this size cannot be resident together, so the live
	// set is kept to one: digest → free → decode → digest. A tight GC
	// target keeps the heap ceiling near the live set instead of 2×.
	defer debug.SetGCPercent(debug.SetGCPercent(30))

	const n = 46342 // smallest n with n·(n−1) > 2³¹−1
	arcs := int64(n) * int64(n-1)
	if arcs <= math.MaxInt32 {
		t.Fatalf("arc count %d does not cross the int32 boundary", arcs)
	}

	// Direct CSR construction of K_n (the Builder's per-edge
	// membership sets would cost another ~2 GB and hours of inserts):
	// identity IDs, ascending port-order rows, so the ascending ports
	// are the identity permutation.
	ids := make([]int64, n)
	offsets := make([]int64, n+1)
	for v := 0; v < n; v++ {
		ids[v] = int64(v)
		offsets[v] = int64(v) * (n - 1)
	}
	offsets[n] = arcs
	nbrs := make([]Vertex, arcs)
	ports := make([]int32, arcs)
	for v := 0; v < n; v++ {
		row := nbrs[offsets[v]:offsets[v+1]]
		prow := ports[offsets[v]:offsets[v+1]]
		i := 0
		for w := 0; w < n; w++ {
			if w != v {
				row[i] = Vertex(w)
				prow[i] = int32(i)
				i++
			}
		}
	}
	g, err := fromCSR(ids, offsets, nbrs, ports, n)
	ids, offsets, nbrs, ports = nil, nil, nil, nil
	if err != nil {
		t.Fatalf("building K_%d: %v", n, err)
	}
	if got := 2 * int64(g.M()); got != arcs {
		t.Fatalf("built %d arcs, want %d", got, arcs)
	}
	if g.MinDegree() != n-1 || g.MaxDegree() != n-1 {
		t.Fatalf("degrees [%d,%d], want %d", g.MinDegree(), g.MaxDegree(), n-1)
	}
	t.Logf("built K_%d: %d arcs", n, arcs)
	digest := topoHash(g)

	// The narrow text format must refuse it loudly, naming its cap.
	if _, err := g.WriteTo(io.Discard); err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Fatalf("v1 text writer: got %v, want a capacity error", err)
	}

	path := filepath.Join(t.TempDir(), "wide.fnrb3")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	wrote, err := g.WriteBinaryV3(bw)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatalf("v3 write: %v", err)
	}
	t.Logf("wrote %d v3 bytes", wrote)

	g = nil
	runtime.GC()

	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	h, err := Read(rf)
	rf.Close()
	if err != nil {
		t.Fatalf("v3 streaming read: %v", err)
	}
	if got := 2 * int64(h.M()); got != arcs {
		t.Fatalf("decoded %d arcs, want %d", got, arcs)
	}
	if got := topoHash(h); got != digest {
		t.Fatalf("round trip changed the topology: digest %#x, want %#x", got, digest)
	}
}
