package graph

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// v2Of returns g's v2 encoding, built from the v3 writer: at chunk =
// v3MaxChunkLen a test-sized graph's v3 stream is one frame, whose
// payload is exactly v2's logical sections, so the v2 bytes are
// binMagic ‖ payload ‖ crc32c(binMagic ‖ payload).
func v2Of(t testing.TB, g *Graph) []byte {
	t.Helper()
	var v3 bytes.Buffer
	if _, err := g.writeBinaryV3(&v3, v3MaxChunkLen); err != nil {
		t.Fatal(err)
	}
	wire := v3.Bytes()[len(binMagicV3):]
	plen, k := binary.Uvarint(wire)
	end := k + int(plen) + 4 // frame CRC, then the end marker
	if k <= 0 || end >= len(wire) || wire[end] != 0 {
		t.Fatalf("the %d-byte v3 stream is not a single frame", v3.Len())
	}
	v2 := slices.Concat(binMagic[:], wire[k:k+int(plen)])
	return binary.LittleEndian.AppendUint32(v2, crc32.Checksum(v2, crcTable))
}

// binaryRoundTrip encodes g in v2 binary and decodes it back.
func binaryRoundTrip(t *testing.T, g *Graph) *Graph {
	t.Helper()
	h, err := Read(bytes.NewReader(v2Of(t, g)))
	if err != nil {
		t.Fatalf("Read(binary): %v", err)
	}
	return h
}

// TestBinaryRoundTripAllFamilies pins encode→decode as the identity —
// including the decoder's sort-free derived-index reconstruction — on
// every generator family and labeling variant.
func TestBinaryRoundTripAllFamilies(t *testing.T) {
	for name, g := range allFamilies(t) {
		t.Run(name, func(t *testing.T) {
			h := binaryRoundTrip(t, g)
			if !g.Equal(h) || !h.Equal(g) {
				t.Fatal("binary round trip changed the graph")
			}
			if err := h.Validate(); err != nil {
				t.Fatalf("decoded graph invalid: %v", err)
			}
			// The decoded graph's derived indexes come from the
			// presorted fast path: spot-check them against the
			// original's query results.
			for v := Vertex(0); int(v) < g.N(); v++ {
				for p, id := range g.IDsOfNeighbors(v, nil) {
					if got := h.PortOfID(v, id); got != g.PortOfID(v, id) {
						t.Fatalf("PortOfID(%d, %d) = %d, want %d", v, id, got, g.PortOfID(v, id))
					}
					if h.Neighbor(v, p) != g.Neighbor(v, p) {
						t.Fatalf("Neighbor(%d, %d) differs", v, p)
					}
				}
				if hv, ok := h.VertexByID(g.ID(v)); !ok || hv != v {
					t.Fatalf("VertexByID(%d) = %d, %v", g.ID(v), hv, ok)
				}
			}
		})
	}
}

// TestReadAutoDetect feeds both serializations of one graph through
// the same Read entry point.
func TestReadAutoDetect(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	g, err := PlantedMinDegree(60, 7, rng)
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if _, err := g.WriteTo(&text); err != nil {
		t.Fatal(err)
	}
	bin := bytes.NewBuffer(v2Of(t, g))
	if bin.Len() >= text.Len() {
		t.Errorf("binary (%d bytes) not smaller than text (%d bytes)", bin.Len(), text.Len())
	}
	ht, err := Read(&text)
	if err != nil {
		t.Fatalf("Read(text): %v", err)
	}
	hb, err := Read(bin)
	if err != nil {
		t.Fatalf("Read(binary): %v", err)
	}
	if !g.Equal(ht) || !g.Equal(hb) {
		t.Fatal("auto-detected round trips not Equal")
	}
}

// TestBinaryRejectsCorrupt drives Read over truncations and
// corruptions of a valid v2 payload: every one must error (the CRC or
// a structural check), never panic, and never return a graph.
func TestBinaryRejectsCorrupt(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 9))
	g, err := PlantedMinDegree(50, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	valid := v2Of(t, g)
	// Truncations at every interesting boundary.
	for _, cut := range []int{1, 4, len(binMagic), len(binMagic) + 1, len(binMagic) + 3, len(valid) / 2, len(valid) - 5, len(valid) - 1} {
		if _, err := Read(bytes.NewReader(valid[:cut])); err == nil {
			t.Errorf("Read accepted a %d-byte truncation of a %d-byte payload", cut, len(valid))
		}
	}
	// Single corrupted byte in the header, body, and trailer.
	for _, pos := range []int{len(binMagic), len(binMagic) + 2, len(valid) / 2, len(valid) - 2} {
		c := append([]byte(nil), valid...)
		c[pos] ^= 0x40
		if _, err := Read(bytes.NewReader(c)); err == nil {
			t.Errorf("Read accepted a payload corrupted at byte %d", pos)
		}
	}
	// A future format version must be refused explicitly.
	c := append([]byte(nil), valid...)
	c[len(binMagic)-1] = 3
	if _, err := Read(bytes.NewReader(c)); err == nil {
		t.Error("Read accepted an unknown binary format version")
	}
}

// craftBinary assembles a v2 payload (with a valid trailer) from raw
// header values and varint sections — for feeding the reader inputs no
// writer produces.
func craftBinary(n, nPrime, arcs uint64, idDeltas []int64, degrees []uint64, rows []uint64) []byte {
	var buf bytes.Buffer
	buf.Write(binMagic[:])
	var tmp [binary.MaxVarintLen64]byte
	putU := func(x uint64) { buf.Write(tmp[:binary.PutUvarint(tmp[:], x)]) }
	putI := func(x int64) { buf.Write(tmp[:binary.PutVarint(tmp[:], x)]) }
	putU(n)
	putU(nPrime)
	putU(arcs)
	for _, d := range idDeltas {
		putI(d)
	}
	for _, d := range degrees {
		putU(d)
	}
	for _, x := range rows {
		putU(x)
	}
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], crc32.Checksum(buf.Bytes(), crcTable))
	buf.Write(trailer[:])
	return buf.Bytes()
}

// TestBinaryRejectsWrappingGap is the regression for a crafted
// neighbor gap ≥ 2^63: the int64 delta arithmetic used to wrap
// negative, slip past the upper-bound check, and panic indexing
// ids[-1]. Any gap ≥ n must be rejected before the arithmetic.
func TestBinaryRejectsWrappingGap(t *testing.T) {
	// n=2, non-identity ids [1, 0], one edge; row 0's first gap wraps.
	evil := craftBinary(2, 2, 2,
		[]int64{1, -1},
		[]uint64{1, 1},
		[]uint64{math.MaxUint64, 0 /* row 0: gap, port */, 0, 0 /* row 1 */})
	if _, err := Read(bytes.NewReader(evil)); err == nil {
		t.Fatal("Read accepted a wrapping neighbor gap")
	}
	// A gap that wraps back into range must be rejected too, not
	// accepted as a bogus ascending run.
	evil = craftBinary(2, 2, 2,
		[]int64{1, -1},
		[]uint64{1, 1},
		[]uint64{1<<64 - 1<<32, 0, 0, 0})
	if _, err := Read(bytes.NewReader(evil)); err == nil {
		t.Fatal("Read accepted an in-range-after-wrap neighbor gap")
	}
	// Degree varints near 2^64 used to wrap the degree-sum accumulator
	// past both its guards, planting negative CSR offsets (and an
	// index-out-of-range panic) — the sum must be rejected before it
	// wraps.
	evil = craftBinary(3, 3, 2,
		[]int64{0, 1, 1},
		[]uint64{math.MaxUint64, 1, 2},
		[]uint64{1, 0, 0, 0})
	if _, err := Read(bytes.NewReader(evil)); err == nil {
		t.Fatal("Read accepted a wrapping degree sum")
	}
	evil = craftBinary(4, 4, 2,
		[]int64{0, 1, 1, 1},
		[]uint64{1, math.MaxUint64, 1, 1},
		[]uint64{1, 0, 0, 0})
	if _, err := Read(bytes.NewReader(evil)); err == nil {
		t.Fatal("Read accepted a wrapping degree sum (non-monotone offsets)")
	}
	// Unconsumed bytes between the arc sections and the CRC trailer —
	// a payload whose declared counts don't account for all its data —
	// must be rejected even though the checksum holds.
	evil = craftBinary(2, 2, 2,
		[]int64{1, -1},
		[]uint64{1, 1},
		[]uint64{1, 0, 1, 0 /* valid graph */, 9, 9 /* trailing junk */})
	if _, err := Read(bytes.NewReader(evil)); err == nil {
		t.Fatal("Read accepted trailing garbage before the trailer")
	}
}

// FuzzRead holds the parser panic-free on arbitrary input: any byte
// string must either fail cleanly or decode to a graph that validates.
func FuzzRead(f *testing.F) {
	rng := rand.New(rand.NewPCG(3, 4))
	g, err := PlantedMinDegree(30, 4, rng)
	if err != nil {
		f.Fatal(err)
	}
	var text bytes.Buffer
	g.WriteTo(&text)
	bin := v2Of(f, g)
	f.Add(text.Bytes())
	f.Add(bin)
	f.Add(bin[:20])
	f.Add(append(bin[:12:12], 0xff, 0xff, 0xff, 0xff, 0xff))
	f.Add([]byte("fnr-graph v1\nn=2 nprime=2\nids 0 1\nadj 0 1\nadj 1 0\nend\n"))
	f.Add([]byte("fnrgbin\x02"))
	f.Add([]byte{})
	f.Add(craftBinary(2, 2, 2, []int64{1, -1}, []uint64{1, 1},
		[]uint64{math.MaxUint64, 0, 0, 0}))
	f.Add(craftBinary(3, 3, 2, []int64{0, 1, 1},
		[]uint64{math.MaxUint64, 1, 2}, []uint64{1, 0, 0, 0}))
	// v3 seeds: a valid single-frame stream, the same graph shredded
	// into tiny frames, truncations (mid-frame and inside the stream
	// trailer), a corrupted frame payload, a bare/future-version
	// magic, a frame length past the reader's cap, and crafted
	// headers whose declared counts disagree with the payload.
	var v3, v3tiny bytes.Buffer
	g.WriteBinaryV3(&v3)
	g.writeBinaryV3(&v3tiny, 16)
	f.Add(v3.Bytes())
	f.Add(v3tiny.Bytes())
	f.Add(v3.Bytes()[:12])
	f.Add(v3.Bytes()[:v3.Len()-3])
	flipped := append([]byte(nil), v3tiny.Bytes()...)
	flipped[len(binMagicV3)+6] ^= 0x20
	f.Add(flipped)
	f.Add([]byte("fnrgbin\x03"))
	f.Add([]byte("fnrgbin\x04"))
	var over [binary.MaxVarintLen64]byte
	f.Add(append([]byte("fnrgbin\x03"), over[:binary.PutUvarint(over[:], v3MaxChunkLen+1)]...))
	f.Add(craftBinaryV3(2, 2, 2, []int64{1, -1}, []uint64{1, 1},
		[]uint64{math.MaxUint64, 0, 0, 0}, 16))
	f.Add(craftBinaryV3(4, 4, 1<<35, []int64{0, 1, 1, 1}, nil, nil, 1<<12))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := Read(bytes.NewReader(data))
		if err == nil {
			if verr := h.Validate(); verr != nil {
				t.Fatalf("Read accepted an invalid graph: %v", verr)
			}
		}
	})
}

// TestReadBigAdjacencyRow is the regression for the 64 KB token cap a
// default bufio.Scanner imposes: a single adjacency row with degree
// ≫ 8192 spans far more than one buffer and must still parse in both
// formats.
func TestReadBigAdjacencyRow(t *testing.T) {
	const n = 20001 // center degree 20000, text row ≈ 120 KB
	g, err := Star(n)
	if err != nil {
		t.Fatal(err)
	}
	if g.MaxDegree() <= 8192 {
		t.Fatalf("regression needs degree ≫ 8192, got %d", g.MaxDegree())
	}
	var text bytes.Buffer
	if _, err := g.WriteTo(&text); err != nil {
		t.Fatal(err)
	}
	h, err := Read(&text)
	if err != nil {
		t.Fatalf("Read(text) with a %d-degree row: %v", g.MaxDegree(), err)
	}
	if !g.Equal(h) {
		t.Fatal("big-row text round trip changed the graph")
	}
	if hb := binaryRoundTrip(t, g); !g.Equal(hb) {
		t.Fatal("big-row binary round trip changed the graph")
	}
}

// TestArcCountCapsByFormat pins where the seed-era 2^31 arc cap now
// lives: not in the CSR build path (offsets are int64; see
// TestWideOffsetsBoundaryRoundTrip for the gated proof at the real
// boundary), but in the v1/v2 serialization formats: a v2 header (and
// the v1 text writer, see TestWideOffsetsBoundaryRoundTrip) must reject
// wide graphs loudly before allocating anything proportional to the
// declared width.
func TestArcCountCapsByFormat(t *testing.T) {
	// A v2 header declaring 2^31 arcs is refused at the capacity check,
	// not with a truncation error after attempted allocation.
	wide := craftBinary(4, 4, 1<<31, []int64{0, 1, 1, 1}, nil, nil)
	_, err := Read(bytes.NewReader(wide))
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("v2 format capacity")) {
		t.Fatalf("v2 reader: got %v, want the format-capacity rejection", err)
	}
	// The same declaration under the v3 magic sails past the capacity
	// checks: the framed stream then fails for truncation (no frames),
	// never for arc-count width.
	wideV3 := craftBinaryV3(4, 4, 1<<31, []int64{0, 1, 1, 1}, nil, nil, 1<<16)
	_, err = Read(bytes.NewReader(wideV3))
	if err == nil {
		t.Fatal("v3 reader accepted a truncated wide payload")
	}
	if bytes.Contains([]byte(err.Error()), []byte("capacity")) {
		t.Fatalf("v3 reader rejected a 2^31 arc count for width: %v", err)
	}
}

// TestVertexByIDAllocs gates VertexByID at zero allocations in both
// index forms (dense inverse under tight naming, sorted pairs under
// sparse naming).
func TestVertexByIDAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	rng := rand.New(rand.NewPCG(11, 12))
	tight, err := PlantedMinDegree(64, 7, rng)
	if err != nil {
		t.Fatal(err)
	}
	b := Rebuild(tight)
	if err := b.SparseIDs(1000, rng); err != nil {
		t.Fatal(err)
	}
	sparse, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if tight.idToV == nil {
		t.Fatal("tight graph did not get the dense inverse index")
	}
	if sparse.idKeys == nil {
		t.Fatal("sparse graph did not get the sorted-pair index")
	}
	for _, g := range []*Graph{tight, sparse} {
		id := g.ID(3)
		if allocs := testing.AllocsPerRun(100, func() {
			if _, ok := g.VertexByID(id); !ok {
				t.Fatal("lookup failed")
			}
			if _, ok := g.VertexByID(-7); ok {
				t.Fatal("negative ID resolved")
			}
		}); allocs != 0 {
			t.Errorf("VertexByID allocates %.1f times per call, want 0", allocs)
		}
	}
}

// TestReadAllocsPerRow gates the parsers' per-row allocation budget:
// the old strings.Fields parser allocated multiple times per row; the
// rewrite must stay below one allocation per row end to end (flat
// arrays plus O(1) scratch).
func TestReadAllocsPerRow(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	rng := rand.New(rand.NewPCG(13, 14))
	g, err := PlantedMinDegree(2048, 24, rng)
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if _, err := g.WriteTo(&text); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"text": text.Bytes(), "binary": v2Of(t, g)} {
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := Read(bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		})
		if perRow := allocs / float64(g.N()); perRow > 1 {
			t.Errorf("%s Read: %.0f allocations = %.2f per row, want < 1", name, allocs, perRow)
		}
	}
}
