package graph

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math/rand/v2"
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
	cw := &chunkedWriter{w: &buf, crc: crc32.New(crcTable), chunk: chunk, buf: make([]byte, 0, chunk+binary.MaxVarintLen64)}
	cw.write(binMagicV3[:])
	cw.putU(n)
	cw.putU(nPrime)
	cw.putU(arcs)
	for _, d := range idDeltas {
		cw.putI(d)
	}
	for _, d := range degrees {
		cw.putU(d)
	}
	for _, x := range rows {
		cw.putU(x)
	}
	cw.finish()
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
	var v2, v3 bytes.Buffer
	if _, err := g.WriteBinary(&v2); err != nil {
		t.Fatal(err)
	}
	if _, err := g.WriteBinaryV3(&v3); err != nil {
		t.Fatal(err)
	}
	h2, err := Read(bytes.NewReader(v2.Bytes()))
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
	if v3.Len() > v2.Len()+32 {
		t.Errorf("v3 (%d bytes) much larger than v2 (%d bytes)", v3.Len(), v2.Len())
	}
}

// TestBinaryV3RejectsCorrupt drives Read over truncations and
// corruptions of a valid multi-frame v3 stream: every one must error
// cleanly (frame CRC, stream CRC, or a structural check), never panic,
// never return a graph — sized and unsized alike.
func TestBinaryV3RejectsCorrupt(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 9))
	g, err := PlantedMinDegree(50, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := g.writeBinaryV3(&buf, 128); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	if _, err := Read(bytes.NewReader(valid)); err != nil {
		t.Fatalf("valid multi-frame stream rejected: %v", err)
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
	// Truncations at every interesting boundary, including mid-frame
	// and inside the end marker and trailer.
	for _, cut := range []int{1, 4, len(binMagicV3), len(binMagicV3) + 1, len(binMagicV3) + 3, len(valid) / 2, len(valid) - 5, len(valid) - 1} {
		check("truncation", valid[:cut])
	}
	// Single corrupted byte in the header, frame payloads, and trailer.
	for _, pos := range []int{len(binMagicV3), len(binMagicV3) + 2, len(valid) / 2, len(valid) - 2} {
		c := append([]byte(nil), valid...)
		c[pos] ^= 0x40
		check("bit flip", c)
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

// TestBinaryV3StraddlesEveryChunk shreds one graph across every tiny
// chunk target so frame boundaries land between all section types.
func TestBinaryV3StraddlesEveryChunk(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	g, err := PlantedMinDegree(80, 9, rng)
	if err != nil {
		t.Fatal(err)
	}
	for chunk := 1; chunk <= 24; chunk++ {
		h := v3RoundTrip(t, g, chunk)
		if !g.Equal(h) {
			t.Fatalf("chunk=%d round trip changed the graph", chunk)
		}
	}
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
	var text, v2, v3 bytes.Buffer
	if _, err := g.WriteTo(&text); err != nil {
		t.Fatal(err)
	}
	if _, err := g.WriteBinary(&v2); err != nil {
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
	}{{"v1 text", text.Bytes()}, {"v2", v2.Bytes()}, {"v3", v3.Bytes()}, {"v3 again", v3.Bytes()}} {
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
