package graph

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// unsizedReader hides the size of its source, forcing the v3 decoder
// onto its growth-bounded no-size-hint path.
type unsizedReader struct{ r io.Reader }

func (u unsizedReader) Read(p []byte) (int, error) { return u.r.Read(p) }

// craftBinaryV3 assembles a v3 stream (valid frame and stream CRCs)
// from raw header values and varint sections, framed at the given
// chunk target — for feeding the reader inputs no writer produces.
func craftBinaryV3(n, nPrime, arcs uint64, idDeltas []int64, degrees []uint64, rows []uint64, chunk int) []byte {
	var buf bytes.Buffer
	bw := newBinaryWriter(&buf, chunk)
	putU := func(x uint64) { bw.buf = bw.put(binary.AppendUvarint(bw.buf, x)) }
	putU(n)
	putU(nPrime)
	putU(arcs)
	for _, d := range idDeltas {
		bw.buf = bw.put(binary.AppendVarint(bw.buf, d))
	}
	for _, d := range degrees {
		putU(d)
	}
	for _, x := range rows {
		putU(x)
	}
	bw.finish()
	return buf.Bytes()
}

// v3RoundTrip encodes g in v3 at the given chunk target and decodes it
// back through Read, both sized and unsized.
func v3RoundTrip(t *testing.T, g *Graph, chunk int) *Graph {
	t.Helper()
	var buf bytes.Buffer
	wrote, err := g.writeBinaryV3(&buf, chunk)
	if err != nil {
		t.Fatalf("writeBinaryV3(chunk=%d): %v", chunk, err)
	}
	if wrote != int64(buf.Len()) {
		t.Fatalf("writeBinaryV3 reported %d bytes, wrote %d", wrote, buf.Len())
	}
	h, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Read(v3 sized, chunk=%d): %v", chunk, err)
	}
	hu, err := Read(unsizedReader{bytes.NewReader(buf.Bytes())})
	if err != nil {
		t.Fatalf("Read(v3 unsized, chunk=%d): %v", chunk, err)
	}
	if !h.Equal(hu) {
		t.Fatalf("sized and unsized v3 decodes differ (chunk=%d)", chunk)
	}
	return h
}

// TestBinaryV3RoundTripAllFamilies pins v3 encode→decode as the
// identity on every family and labeling variant, at a tiny chunk
// target (so even unit-size graphs span many frames) and the default.
func TestBinaryV3RoundTripAllFamilies(t *testing.T) {
	for name, g := range allFamilies(t) {
		t.Run(name, func(t *testing.T) {
			for _, chunk := range []int{64, v3ChunkLen} {
				h := v3RoundTrip(t, g, chunk)
				if !g.Equal(h) || !h.Equal(g) {
					t.Fatalf("v3 round trip (chunk=%d) changed the graph", chunk)
				}
				if err := h.Validate(); err != nil {
					t.Fatalf("decoded graph invalid (chunk=%d): %v", chunk, err)
				}
			}
		})
	}
}

// TestBinaryV3MatchesV2Payload pins the cross-format identity: the
// same graph decoded from v2 and from v3 must be Equal, and the v3
// framing overhead must stay marginal (frames add ~9 bytes per MiB).
func TestBinaryV3MatchesV2Payload(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	g, err := PlantedMinDegree(300, 11, rng)
	if err != nil {
		t.Fatal(err)
	}
	var v3 bytes.Buffer
	if _, err := g.WriteBinaryV3(&v3); err != nil {
		t.Fatal(err)
	}
	v2 := v2Of(t, g)
	h2, err := Read(bytes.NewReader(v2))
	if err != nil {
		t.Fatal(err)
	}
	h3, err := Read(bytes.NewReader(v3.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !h2.Equal(h3) {
		t.Fatal("v2 and v3 decodes of the same graph differ")
	}
	// One frame here: overhead = length varint + frame CRC + end
	// marker + stream CRC ≈ 12 bytes over v2's 4-byte trailer.
	if v3.Len() > len(v2)+32 {
		t.Errorf("v3 (%d bytes) much larger than v2 (%d bytes)", v3.Len(), len(v2))
	}
}

// TestBinaryV3RejectsCorrupt drives Read over truncations and
// corruptions of valid multi-frame v3 streams (one with multi-byte
// gaps and ports): every one must error cleanly (frame CRC, stream
// CRC, or a structural check), never panic, never return a graph —
// sized and unsized alike.
func TestBinaryV3RejectsCorrupt(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 9))
	g, err := PlantedMinDegree(50, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, data []byte) {
		t.Helper()
		if _, err := Read(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: sized Read accepted it", name)
		}
		if _, err := Read(unsizedReader{bytes.NewReader(data)}); err == nil {
			t.Errorf("%s: unsized Read accepted it", name)
		}
	}
	var valid []byte // the planted stream once the loop ends; reused below
	for _, g := range []*Graph{allFamilies(t)["wide gaps"], g} {
		var buf bytes.Buffer
		if _, err := g.writeBinaryV3(&buf, 128); err != nil {
			t.Fatal(err)
		}
		valid = buf.Bytes()
		if _, err := Read(bytes.NewReader(valid)); err != nil {
			t.Fatalf("valid multi-frame stream rejected: %v", err)
		}
		// Truncations at every interesting boundary, including
		// mid-frame and inside the end marker and trailer.
		for _, cut := range []int{1, 4, len(binMagicV3), len(binMagicV3) + 1, len(binMagicV3) + 3, len(valid) / 2, len(valid) - 5, len(valid) - 1} {
			check("truncation", valid[:cut])
		}
		// Single corrupted byte in the header, frame payloads, and
		// trailer.
		for _, pos := range []int{len(binMagicV3), len(binMagicV3) + 2, len(valid) / 2, len(valid) - 2} {
			c := append([]byte(nil), valid...)
			c[pos] ^= 0x40
			check("bit flip", c)
		}
	}
	// A frame length past the reader's cap must be refused before any
	// allocation for it.
	var over bytes.Buffer
	over.Write(binMagicV3[:])
	var tmp [binary.MaxVarintLen64]byte
	over.Write(tmp[:binary.PutUvarint(tmp[:], v3MaxChunkLen+1)])
	check("oversized frame", over.Bytes())
	// A varint split across a frame boundary is a hard error (the
	// writer never produces one): first frame carries the lone
	// continuation byte of a two-byte varint.
	var split bytes.Buffer
	split.Write(binMagicV3[:])
	frame := func(payload []byte) {
		split.Write(tmp[:binary.PutUvarint(tmp[:], uint64(len(payload)))])
		split.Write(payload)
		var fcrc [4]byte
		binary.LittleEndian.PutUint32(fcrc[:], crc32.Checksum(payload, crcTable))
		split.Write(fcrc[:])
	}
	frame([]byte{0x80})
	frame([]byte{0x01})
	sum := crc32.Checksum(split.Bytes(), crcTable)
	split.WriteByte(0)
	var tb [4]byte
	binary.LittleEndian.PutUint32(tb[:], sum)
	split.Write(tb[:])
	check("split varint", split.Bytes())
	// Version byte 4 must be refused explicitly.
	c := append([]byte(nil), valid...)
	c[len(binMagicV3)-1] = 4
	check("future version", c)
	// Trailing bytes after the stream trailer must be refused even
	// though every checksum holds.
	check("trailing bytes", append(append([]byte(nil), valid...), 0x00))
}

// TestBinaryV3StraddlesEveryChunk shreds graphs across every tiny
// chunk target so frame boundaries land between all section types,
// then across targets up to 1 MiB, where rows decode in one pass
// inside a frame and only a frame's last row straddles. The "wide
// gaps" family puts multi-byte gaps and ports in its rows.
func TestBinaryV3StraddlesEveryChunk(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	planted, err := PlantedMinDegree(80, 9, rng)
	if err != nil {
		t.Fatal(err)
	}
	chunks := []int{127, 128, 129, 255, 1000, 4096, 1 << 16, 1 << 20}
	for chunk := 24; chunk >= 1; chunk-- {
		chunks = append([]int{chunk}, chunks...)
	}
	for name, g := range map[string]*Graph{"planted": planted, "wide gaps": allFamilies(t)["wide gaps"]} {
		for _, chunk := range chunks {
			h := v3RoundTrip(t, g, chunk)
			if !g.Equal(h) {
				t.Fatalf("%s: chunk=%d round trip changed the graph", name, chunk)
			}
		}
	}
}

// TestBinaryRowErrorsMatchAcrossFormats corrupts one row of a valid
// payload in each way the row checks catch, and requires v2 and v3
// (sized and unsized) to reject it with the same error text at every
// v3 chunk target from one byte up, so that the bad row lies wholly
// inside a frame for some targets and straddles a frame boundary for
// others.
func TestBinaryRowErrorsMatchAcrossFormats(t *testing.T) {
	g, err := PlantedMinDegree(40, 5, rand.New(rand.NewPCG(41, 42)))
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	idDeltas := make([]int64, n)
	degrees := make([]uint64, n)
	var rows []uint64
	rowAt := make([]int, n+1) // row v is rows[rowAt[v]:rowAt[v+1]]
	for v := Vertex(0); int(v) < n; v++ {
		idDeltas[v] = 1
		degrees[v] = uint64(g.Degree(v))
		rowAt[v] = len(rows)
		last := Vertex(0)
		for _, u := range slices.Sorted(slices.Values(g.Adj(v))) {
			rows = append(rows, uint64(u-last))
			last = u
		}
		for _, p := range g.idPort[g.offsets[v]:g.offsets[v+1]] {
			rows = append(rows, uint64(p))
		}
	}
	rowAt[n] = len(rows)
	idDeltas[0] = 0
	bad := Vertex(n / 2)
	deg := g.Degree(bad)
	if deg < 3 {
		t.Fatalf("row %d has degree %d, want ≥ 3", bad, deg)
	}
	gap, port := rowAt[bad], rowAt[bad]+deg
	// Byte offsets of every payload varint, to tell where frames cut.
	var varints []uint64
	varints = append(varints, uint64(n), uint64(n), uint64(2*g.M()))
	for _, d := range idDeltas {
		varints = append(varints, uint64(d)<<1)
	}
	varints = append(varints, degrees...)
	rowsFrom := len(varints)

	run := slices.Sorted(slices.Values(g.Adj(bad)))
	for _, tc := range []struct {
		name, want string
		at         int
		val        uint64
	}{
		{"gap ≥ n", "out-of-range neighbor gap 1048576", gap, 1 << 20},
		{"zero gap", fmt.Sprintf("parallel edge %d-%d", bad, run[0]), gap + 1, 0},
		{"neighbor ≥ n", fmt.Sprintf("out-of-range neighbor %d", int(run[deg-2])+n-1), gap + deg - 1, uint64(n - 1)},
		{"port ≥ deg", fmt.Sprintf("port 300 outside [0,%d)", deg), port, 300},
		{"duplicate port", fmt.Sprintf("lists port %d twice", rows[port]), port + 1, rows[port]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bent := slices.Clone(rows)
			bent[tc.at] = tc.val
			_, err := Read(bytes.NewReader(craftBinary(uint64(n), uint64(n), uint64(2*g.M()), idDeltas, degrees, bent)))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("v2: got %v, want an error containing %q", err, tc.want)
			}
			lens := make([]int, 0, rowsFrom+len(bent))
			for _, x := range append(slices.Clone(varints), bent...) {
				lens = append(lens, len(binary.AppendUvarint(nil, x)))
			}
			inside, straddled := false, false
			for chunk := 1; chunk <= 2*len(bent)+2*n+8; chunk++ {
				data := craftBinaryV3(uint64(n), uint64(n), uint64(2*g.M()), idDeltas, degrees, bent, chunk)
				for _, r := range []io.Reader{bytes.NewReader(data), unsizedReader{bytes.NewReader(data)}} {
					if _, err3 := Read(r); err3 == nil || err3.Error() != err.Error() {
						t.Fatalf("chunk=%d: v3 error %v, v2 error %v", chunk, err3, err)
					}
				}
				if cutsRow(lens, chunk, rowsFrom+rowAt[bad], rowsFrom+rowAt[bad+1]) {
					straddled = true
				} else {
					inside = true
				}
			}
			if !inside || !straddled {
				t.Fatalf("bad row inside a frame: %v, straddling frames: %v; want both", inside, straddled)
			}
		})
	}
}

// cutsRow reports whether the v3 writer's frames, at the given chunk
// target over payload varints of the given byte lengths, cut inside
// the run of varints [from, to).
func cutsRow(lens []int, chunk, from, to int) bool {
	pending := 0
	for i, l := range lens {
		pending += l
		if pending >= chunk {
			pending = 0
			if i >= from && i < to-1 {
				return true
			}
		}
	}
	return false
}

// TestReadStampsGraphs checks that every decoder stamps the graph it
// returns: a non-zero stamp distinct from the source graph's and from
// every other read, so stamp-keyed caches (the whiteboard walker's
// return ports) persist across trials on file-loaded graphs too.
func TestReadStampsGraphs(t *testing.T) {
	g, err := PlantedMinDegree(64, 7, rand.New(rand.NewPCG(3, 4)))
	if err != nil {
		t.Fatal(err)
	}
	var text, v3 bytes.Buffer
	if _, err := g.WriteTo(&text); err != nil {
		t.Fatal(err)
	}
	if _, err := g.WriteBinaryV3(&v3); err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]string{g.Stamp(): "generated"}
	if g.Stamp() == 0 {
		t.Fatal("generated graph has stamp 0")
	}
	for _, f := range []struct {
		name string
		data []byte
	}{{"v1 text", text.Bytes()}, {"v2", v2Of(t, g)}, {"v3", v3.Bytes()}, {"v3 again", v3.Bytes()}} {
		h, err := Read(bytes.NewReader(f.data))
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if h.Stamp() == 0 {
			t.Errorf("%s: read graph has stamp 0", f.name)
		}
		if prev, dup := seen[h.Stamp()]; dup {
			t.Errorf("%s: stamp %d already issued to the %s graph", f.name, h.Stamp(), prev)
		}
		seen[h.Stamp()] = f.name
	}
}

// TestBinaryEncodingsPinned pins the exact v2 and v3 bytes — v3 at
// chunk targets that cut frames after every varint, mid-row, and not
// at all — for an identity-named and a permuted-ID planted graph with
// multi-byte ports, so a writer change that still round-trips cannot
// move the framing or the payload unnoticed. The v2 bytes are rebuilt
// from a single v3 frame (v2Of), so their pin holds the v3 payload to
// the v2 files already on disk. Values are sha256 prefixes.
func TestBinaryEncodingsPinned(t *testing.T) {
	g, err := PlantedMinDegree(300, 140, rand.New(rand.NewPCG(5, 6)))
	if err != nil {
		t.Fatal(err)
	}
	b := Rebuild(g)
	b.PermuteIDs(rand.New(rand.NewPCG(7, 8)))
	permuted, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]map[int]string{ // chunk 0 = v2
		"identity": {0: "6c5fa4abaaa7a7a0", 1: "de302938aa38cc55", 7: "13564e813719ebdb", 1000: "2df045b54f5c088a", v3ChunkLen: "dbcb3a34682d18e5"},
		"permuted": {0: "dff11e4586c52e50", 1: "70de503e31574eb5", 7: "e520999cf5fb5ccc", 1000: "acb46d0a2b27c3c8", v3ChunkLen: "f15affe21fdb8099"},
	}
	for name, g := range map[string]*Graph{"identity": g, "permuted": permuted} {
		for chunk, w := range want[name] {
			var buf bytes.Buffer
			if chunk == 0 {
				buf.Write(v2Of(t, g))
			} else if _, err = g.writeBinaryV3(&buf, chunk); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))[:16]; got != w {
				t.Errorf("%s, chunk %d (0 = v2): sha256 %s…, want %s…", name, chunk, got, w)
			}
		}
	}
}

// TestReadV3StreamingAllocs gates v3 decode memory at O(chunk), not
// O(file): a planted(65536, 64) graph written to a real file (~11.7
// MiB, past the 2×v3MaxChunkLen = 8 MiB bound, so a decoder that
// buffers the whole file fails) must read back through the sized
// (os.File) path allocating less than 2×v3MaxChunkLen beyond the
// returned graph's own arrays. MemStats counts are process-wide, so
// the read runs at GOMAXPROCS 1.
func TestReadV3StreamingAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	g, err := PlantedMinDegree(1<<16, 64, rand.New(rand.NewPCG(7, 0xbe7c4)))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "planted.fnr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	size, err := g.WriteBinaryV3(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if size <= 2*v3MaxChunkLen {
		t.Fatalf("file is %d bytes, too small to tell an O(file) decoder from an O(chunk) one", size)
	}

	f, err = os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h, err := Read(f)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Equal(g) {
		t.Fatal("v3 file round trip changed the graph")
	}
	transient := int64(after.TotalAlloc-before.TotalAlloc) - h.FootprintBytes()
	t.Logf("%d-byte file: read allocated %d bytes beyond the graph's %d-byte footprint", size, transient, h.FootprintBytes())
	if transient >= 2*v3MaxChunkLen {
		t.Fatalf("streaming read allocated %d bytes beyond the graph, want < 2×v3MaxChunkLen = %d", transient, 2*v3MaxChunkLen)
	}
}
