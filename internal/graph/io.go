package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Three serialization formats share one reader:
//
// The v1 text format preserves IDs, the ID-space bound, and the exact
// port order of every adjacency list — human-inspectable, stable since
// the seed, and still what golden files use:
//
//	fnr-graph v1
//	n=<n> nprime=<n'>
//	ids <id0> <id1> ... <id_{n-1}>
//	adj <v> <w0> <w1> ...        (one line per vertex, ports in order)
//	end
//
// Vertices in adj lines are internal indices, not IDs.
//
// The v2 binary format carries the same information as varint-encoded
// CSR arrays, roughly half the text size and an order of magnitude
// faster to parse at n=65536 (see README.md, "Graph serialization").
// Adjacency is stored per vertex as the ASCENDING neighbor list
// (delta-coded, so the gaps are small) plus the permutation recovering
// the port order — under identity naming exactly the graph's ID->port
// index, so the reader rebuilds it without sorting anything:
//
//	magic   8 bytes: "fnrgbin" + version byte 0x02
//	header  uvarint n, uvarint n', uvarint arcs (= 2m)
//	ids     n zigzag varints, delta-coded (ids[v] − ids[v−1])
//	degrees n uvarints (the CSR offset deltas)
//	arcs    per vertex: deg(v) uvarint gaps of the ascending neighbor
//	        list (first gap from 0, later gaps ≥ 1), then deg(v)
//	        uvarint ports — ports[i] is the local port of v leading to
//	        the i-th ascending neighbor
//	trailer crc32 (Castagnoli, little-endian) of magic through arcs
//
// The v3 chunked binary format (see its own section below) carries the
// same logical payload as v2 with 64-bit arc counts, framed so the
// decoder streams with O(chunk) transient memory — the only format for
// graphs past 2^31 arcs.
//
// Read auto-detects the format by the leading bytes; WriteTo emits v1
// text and WriteBinaryV3 emits v3. v2 is read-only: nothing writes it
// any more, and Read keeps decoding the v2 files already on disk.

const formatHeader = "fnr-graph v1"

// binMagic opens the v2 binary format: seven tag bytes no valid v1
// text stream can start with, then the format version (v3 bumps the
// final byte; see binMagicV3).
var binMagic = [8]byte{'f', 'n', 'r', 'g', 'b', 'i', 'n', 2}

// crcTable is the Castagnoli polynomial table shared by the binary
// writer and reader.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// countWriter counts the bytes that actually reach the underlying
// writer.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// WriteTo serializes g in the fnr-graph v1 text format. Numbers are
// appended with strconv into a buffered writer — no per-field fmt
// call — so serializing multi-million-arc graphs stays cheap.
func (g *Graph) WriteTo(w io.Writer) (int64, error) {
	if len(g.nbrs) > math.MaxInt32 {
		return 0, fmt.Errorf("graph: arc count %d exceeds v1 text capacity (max %d arcs; use WriteBinaryV3)", len(g.nbrs), math.MaxInt32)
	}
	cw := &countWriter{w: w}
	bw := bufio.NewWriterSize(cw, 1<<16)
	scratch := make([]byte, 0, 24)
	writeInt := func(prefix byte, x int64) error {
		scratch = append(scratch[:0], prefix)
		scratch = strconv.AppendInt(scratch, x, 10)
		_, err := bw.Write(scratch)
		return err
	}
	if _, err := fmt.Fprintf(bw, "%s\nn=%d nprime=%d\nids", formatHeader, g.N(), g.nPrime); err != nil {
		return cw.n, err
	}
	for _, id := range g.ids {
		if err := writeInt(' ', id); err != nil {
			return cw.n, err
		}
	}
	if err := bw.WriteByte('\n'); err != nil {
		return cw.n, err
	}
	for v := Vertex(0); int(v) < g.N(); v++ {
		if _, err := bw.WriteString("adj"); err != nil {
			return cw.n, err
		}
		if err := writeInt(' ', int64(v)); err != nil {
			return cw.n, err
		}
		for _, u := range g.Adj(v) {
			if err := writeInt(' ', int64(u)); err != nil {
				return cw.n, err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return cw.n, err
		}
	}
	if _, err := bw.WriteString("end\n"); err != nil {
		return cw.n, err
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// binaryWriter streams the v3 binary format. The payload sections
// append whole varints to buf, and the varint that brings buf to chunk
// bytes or more flushes it as one length-prefixed, CRC-trailed frame,
// so frame boundaries always fall between varints. crc digests every
// wire byte, which is what the stream trailer checksums. err is
// sticky.
type binaryWriter struct {
	w     io.Writer
	crc   hash.Hash32
	buf   []byte
	chunk int
	n     int64
	err   error
}

// newBinaryWriter starts a v3 stream on w, cutting frames at chunk
// payload bytes.
func newBinaryWriter(w io.Writer, chunk int) *binaryWriter {
	bw := &binaryWriter{
		w:     w,
		crc:   crc32.New(crcTable),
		buf:   make([]byte, 0, chunk+binary.MaxVarintLen64),
		chunk: chunk,
	}
	bw.write(binMagicV3[:])
	return bw
}

// write sends raw wire bytes: counted and folded into the stream
// digest.
func (bw *binaryWriter) write(p []byte) {
	if bw.err != nil {
		return
	}
	bw.crc.Write(p)
	n, err := bw.w.Write(p)
	bw.n += int64(n)
	bw.err = err
}

// put returns the pending payload buf after a varint was appended to
// it, flushed when that varint brought it to chunk bytes. The emitter
// keeps the payload in a local slice and stores it back into bw.buf
// only here on a flush and when it is done; storing a slice into the
// heap on every varint costs a GC write barrier each time.
func (bw *binaryWriter) put(buf []byte) []byte {
	if len(buf) < bw.chunk {
		return buf
	}
	bw.buf = buf
	bw.flush()
	return bw.buf
}

func (bw *binaryWriter) flush() {
	if len(bw.buf) == 0 {
		return
	}
	var hdr [binary.MaxVarintLen64]byte
	bw.write(binary.AppendUvarint(hdr[:0], uint64(len(bw.buf))))
	bw.write(bw.buf)
	var fcrc [4]byte
	bw.write(binary.LittleEndian.AppendUint32(fcrc[:0], crc32.Checksum(bw.buf, crcTable)))
	bw.buf = bw.buf[:0]
}

// finish flushes the pending payload, writes the end marker, then the
// CRC trailer (which checksums everything before itself, so it is not
// folded into the digest), and reports the bytes written.
func (bw *binaryWriter) finish() (int64, error) {
	bw.flush()
	bw.write([]byte{0})
	if bw.err != nil {
		return bw.n, bw.err
	}
	var tb [4]byte
	n, err := bw.w.Write(binary.LittleEndian.AppendUint32(tb[:0], bw.crc.Sum32()))
	bw.n += int64(n)
	return bw.n, err
}

// emitBinarySections writes the logical payload shared by the v2 and
// v3 binary formats (only v3 is written): the header (n, n', arcs), the delta-coded ids,
// the degrees, then per vertex the ascending-neighbor gaps and the
// sorted→port permutation.
func (g *Graph) emitBinarySections(bw *binaryWriter) {
	buf := bw.buf
	buf = bw.put(binary.AppendUvarint(buf, uint64(g.N())))
	buf = bw.put(binary.AppendUvarint(buf, uint64(g.nPrime)))
	buf = bw.put(binary.AppendUvarint(buf, uint64(len(g.nbrs))))
	prev := int64(0)
	for _, id := range g.ids {
		buf = bw.put(binary.AppendVarint(buf, id-prev))
		prev = id
	}
	for v := Vertex(0); int(v) < g.N(); v++ {
		buf = bw.put(binary.AppendUvarint(buf, uint64(g.Degree(v))))
	}
	// asc[i] = the local port behind v's i-th smallest neighbor. Under
	// identity naming that is exactly the graph's idPort run (ID order
	// equals index order); otherwise one sort of the row recovers it.
	var keys []uint64
	var asc []int32
	for v := Vertex(0); int(v) < g.N(); v++ {
		o, e := g.offsets[v], g.offsets[v+1]
		row, run := g.nbrs[o:e], g.idPort[o:e]
		if g.names != nil {
			asc = slices.Grow(asc[:0], len(row))[:len(row)]
			keys = ascendingPorts(row, asc, keys)
			run = asc
		}
		last := Vertex(0)
		for _, p := range run {
			buf = bw.put(binary.AppendUvarint(buf, uint64(row[p]-last)))
			last = row[p]
		}
		for _, p := range run {
			buf = bw.put(binary.AppendUvarint(buf, uint64(p)))
		}
	}
	bw.buf = buf
}

// The v3 chunked binary format lifts the two v2 scale walls — the
// 2^31 arc cap (64-bit arc counts) and the io.ReadAll decode (whose
// transient memory is the whole file) — while carrying the exact same
// logical payload sections as v2. Everything after the magic is a
// sequence of self-checking frames, so the decoder's transient memory
// is O(chunk), not O(file):
//
//	magic   8 bytes: "fnrgbin" + version byte 0x03
//	frame   uvarint plen (1 ≤ plen ≤ 4 MiB), plen payload bytes,
//	        crc32c (Castagnoli, little-endian) of those payload bytes
//	...     (frames repeat; their concatenated payloads form the v2
//	        logical sections: header, ids, degrees, gaps+ports)
//	end     uvarint 0, then crc32c of every wire byte before it
//	        (magic, frame lengths, payloads, frame CRCs), so frame
//	        tampering, reordering, and truncation all surface
//
// The writer only flushes frames at varint boundaries, so a varint
// never straddles two frames; the decoder treats a straddled varint in
// crafted input as a hard error. Each frame's CRC is verified before
// any of its bytes are decoded, and the end-frame CRC is accumulated
// incrementally — nothing ever re-reads or retains more than one
// frame.

// binMagicV3 opens the v3 chunked binary format.
var binMagicV3 = [8]byte{'f', 'n', 'r', 'g', 'b', 'i', 'n', 3}

// v3ChunkLen is the writer's target frame payload size.
const v3ChunkLen = 1 << 20

// v3MaxChunkLen is the largest frame payload the decoder accepts — the
// bound on its transient buffer, and the "chunk budget" of
// TestReadV3StreamingAllocs (decode transient must stay under 2× this).
const v3MaxChunkLen = 1 << 22

// v3MaxArcs bounds the arc count a v3 header may declare: with n ≤
// maxReasonableN = 2^28 a simple graph has fewer than 2^56 arcs, so
// anything wider is corrupt, not big.
const v3MaxArcs = 1 << 56

// WriteBinaryV3 serializes g in the fnr binary v3 chunked format — the
// same logical payload as v2 with 64-bit arc counts, framed so the
// reader's transient memory is one chunk instead of the whole file.
// It is the only format that can carry graphs past 2^31 arcs.
func (g *Graph) WriteBinaryV3(w io.Writer) (int64, error) {
	return g.writeBinaryV3(w, v3ChunkLen)
}

// writeBinaryV3 is WriteBinaryV3 with an explicit chunk target, so
// tests can force multi-frame streams at unit-test sizes.
func (g *Graph) writeBinaryV3(w io.Writer, chunk int) (int64, error) {
	if chunk < 1 {
		chunk = 1
	}
	if chunk > v3MaxChunkLen {
		return 0, fmt.Errorf("graph: v3 chunk %d exceeds the reader's frame cap %d", chunk, v3MaxChunkLen)
	}
	bw := newBinaryWriter(w, chunk)
	g.emitBinarySections(bw)
	return bw.finish()
}

// frameReader streams the v3 wire format one frame at a time: buf
// holds the current frame's payload (verified against its CRC before
// any byte is decoded), the stream digest accumulates incrementally,
// and remain tracks the input bytes left when the source's size is
// known (-1 otherwise). err is sticky. A v2 payload, read whole and
// checksummed up front, is one buffer with end already set.
type frameReader struct {
	r      io.Reader
	crc    hash.Hash32
	buf    []byte
	pos    int
	remain int64
	end    bool // end marker seen: no more payload frames
	err    error
}

// errSplitVarint rejects crafted streams whose frame boundary falls
// inside a varint — the writer never produces one.
var errSplitVarint = errors.New("varint split across a chunk boundary")

// readWire fills p with raw wire bytes, counting them against remain
// and folding them into the stream digest.
func (fr *frameReader) readWire(p []byte) error {
	if _, err := io.ReadFull(fr.r, p); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	fr.crc.Write(p)
	if fr.remain >= 0 {
		fr.remain -= int64(len(p))
	}
	return nil
}

// wireUvarint reads one uvarint byte-by-byte from the wire (frame
// lengths live outside any frame).
func (fr *frameReader) wireUvarint() (uint64, error) {
	var x uint64
	var s uint
	var one [1]byte
	for i := 0; i < binary.MaxVarintLen64; i++ {
		if err := fr.readWire(one[:]); err != nil {
			return 0, err
		}
		b := one[0]
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				break
			}
			return x | uint64(b)<<s, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, errors.New("frame length varint overflows")
}

// nextFrame loads the next data frame into buf, or — on the end
// marker — verifies the whole-stream CRC and that the input ends.
func (fr *frameReader) nextFrame() error {
	plen, err := fr.wireUvarint()
	if err != nil {
		return err
	}
	if plen == 0 {
		// End marker: the trailer checksums every wire byte before it,
		// so snapshot the digest before consuming it.
		want := fr.crc.Sum32()
		var tb [4]byte
		if _, err := io.ReadFull(fr.r, tb[:]); err != nil {
			return io.ErrUnexpectedEOF
		}
		if binary.LittleEndian.Uint32(tb[:]) != want {
			return errors.New("stream checksum mismatch (corrupt or reordered frames)")
		}
		var one [1]byte
		if n, err := io.ReadFull(fr.r, one[:]); n != 0 || err != io.EOF {
			return errors.New("trailing bytes after the v3 stream trailer")
		}
		fr.end = true
		fr.buf, fr.pos = fr.buf[:0], 0
		return nil
	}
	if plen > v3MaxChunkLen {
		return fmt.Errorf("frame length %d exceeds the %d-byte cap", plen, v3MaxChunkLen)
	}
	if fr.remain >= 0 && int64(plen)+4 > fr.remain {
		return io.ErrUnexpectedEOF
	}
	if uint64(cap(fr.buf)) < plen {
		fr.buf = make([]byte, plen)
	}
	fr.buf = fr.buf[:plen]
	fr.pos = 0
	if err := fr.readWire(fr.buf); err != nil {
		return err
	}
	var fcrc [4]byte
	if err := fr.readWire(fcrc[:]); err != nil {
		return err
	}
	if crc32.Checksum(fr.buf, crcTable) != binary.LittleEndian.Uint32(fcrc[:]) {
		return errors.New("frame checksum mismatch (corrupt or truncated chunk)")
	}
	return nil
}

// u64 decodes the next payload uvarint, crossing frame boundaries.
func (fr *frameReader) u64() uint64 {
	if fr.err != nil {
		return 0
	}
	for fr.pos == len(fr.buf) {
		if fr.end {
			fr.err = io.ErrUnexpectedEOF
			return 0
		}
		if err := fr.nextFrame(); err != nil {
			fr.err = err
			return 0
		}
		if fr.end {
			fr.err = io.ErrUnexpectedEOF
			return 0
		}
	}
	x, k := binary.Uvarint(fr.buf[fr.pos:])
	if k <= 0 {
		switch {
		case k < 0:
			fr.err = errors.New("payload varint overflows")
		case fr.end:
			fr.err = io.ErrUnexpectedEOF // the last buffer ends inside a varint
		default:
			fr.err = errSplitVarint
		}
		return 0
	}
	fr.pos += k
	return x
}

// i64 decodes the next payload zigzag varint.
func (fr *frameReader) i64() int64 {
	x := fr.u64()
	return int64(x>>1) ^ -int64(x&1)
}

// finish checks that the payload and the stream end together: no
// unconsumed payload bytes, no frames past the decoded sections, and a
// verified end marker.
func (fr *frameReader) finish() error {
	if fr.err != nil {
		return fr.err
	}
	if fr.pos != len(fr.buf) {
		return fmt.Errorf("%d unconsumed bytes after the arc sections", len(fr.buf)-fr.pos)
	}
	if !fr.end {
		if err := fr.nextFrame(); err != nil {
			return err
		}
		if !fr.end {
			return fmt.Errorf("%d unconsumed bytes after the arc sections", len(fr.buf))
		}
	}
	return nil
}

// readBinaryV3 decodes the v3 chunked format. sizeHint is the input's
// remaining byte count when known (seekable files, in-memory readers),
// -1 otherwise. Known sizes get the v2 check-before-allocate guard and
// exact preallocation — the streaming decode then allocates nothing
// transient beyond one frame buffer, which is what keeps transient
// memory O(chunk) instead of O(file). Unknown sizes fall back to
// append growth, which is bounded by a small multiple of the input
// actually consumed, so a forged header still cannot buy allocation it
// did not pay for in bytes.
func readBinaryV3(br *bufio.Reader, sizeHint int64) (*Graph, error) {
	fr := &frameReader{r: br, crc: crc32.New(crcTable), remain: sizeHint}
	var magic [8]byte
	if err := fr.readWire(magic[:]); err != nil {
		return nil, fmt.Errorf("graph: v3 magic: %w", err)
	}
	nU, nPrimeU, arcsU := fr.u64(), fr.u64(), fr.u64()
	if fr.err != nil {
		return nil, fmt.Errorf("graph: v3 header: %w", fr.err)
	}
	if nU > maxReasonableN {
		return nil, fmt.Errorf("graph: unreasonable n=%d", nU)
	}
	if nPrimeU > math.MaxInt64 {
		return nil, fmt.Errorf("graph: n'=%d overflows the ID space", nPrimeU)
	}
	if arcsU >= v3MaxArcs {
		return nil, fmt.Errorf("graph: unreasonable arc count %d", arcsU)
	}
	n, arcs := int(nU), int64(arcsU)
	sized := fr.remain >= 0
	// Every varint is at least one byte and framing only adds bytes, so
	// the input must still hold at least 2n+2arcs bytes across the
	// unread wire and the already-buffered frame remainder — reject
	// before allocating for a payload that cannot exist.
	avail := fr.remain + int64(len(fr.buf)-fr.pos)
	if sized && int64(2*n)+2*arcs > avail {
		return nil, fmt.Errorf("graph: v3 payload truncated (%d bytes left for n=%d, %d arcs)", avail, n, arcs)
	}
	idCap := n
	if !sized {
		idCap = min(n, 1<<16)
	}
	ids := make([]int64, 0, idCap)
	prev := int64(0)
	for i := 0; i < n; i++ {
		prev += fr.i64()
		if fr.err != nil {
			return nil, fmt.Errorf("graph: v3 ids: %w", fr.err)
		}
		ids = append(ids, prev)
	}
	// n ids decoded means ≥ n input bytes consumed, so the offsets
	// allocation below is amplification-bounded even unsized.
	offsets := make([]int64, n+1)
	total := uint64(0)
	for v := 0; v < n; v++ {
		deg := fr.u64()
		if fr.err != nil {
			return nil, fmt.Errorf("graph: v3 degrees: %w", fr.err)
		}
		// Compare against remaining capacity (not a sum) so a crafted
		// degree near 2^64 cannot wrap past the checks.
		if deg > arcsU-total {
			return nil, fmt.Errorf("graph: degree sum exceeds declared arc count %d", arcsU)
		}
		total += deg
		offsets[v+1] = int64(total)
	}
	if total != arcsU {
		return nil, fmt.Errorf("graph: degree sum %d does not match declared arc count %d", total, arcsU)
	}
	arcCap := arcs
	if !sized {
		arcCap = min(arcs, 1<<20)
	}
	nbrs, ports, err := fr.readArcs(n, offsets, make([]Vertex, 0, arcCap), make([]int32, 0, arcCap))
	if err != nil {
		if err == fr.err {
			err = fmt.Errorf("graph: v3 arcs: %w", err)
		}
		return nil, err
	}
	if err := fr.finish(); err != nil {
		return nil, fmt.Errorf("graph: v3 payload: %w", err)
	}
	return fromCSR(ids, offsets, nbrs, ports, int64(nPrimeU))
}

// readArcs decodes the arc sections — per vertex v, deg(v) gaps of the
// ascending neighbor run, then deg(v) ports — appending the ports to
// ports and the port-order row to nbrs. Each row's run lands in one
// row-sized scratch and is scattered into nbrs through its ports,
// rejecting a port listed twice, so the row provably holds exactly the
// run's multiset; no arc-sized transient exists. A row that lies
// wholly inside the current buffer decodes in one pass of decodeRow;
// only a row that runs past the buffer's end (in v3, the at most one
// row per frame that straddles a frame boundary) is re-read varint by
// varint through u64, which crosses frames. Both paths apply the same
// checks in the same order, so a malformed row fails with the same
// error wherever the frames split it. A varint error is fr.err,
// returned unwrapped.
//
// The fast path grows the arrays by a row only when the buffer holds
// the row's minimum two bytes per arc, and the slow path appends only
// what it has read, so even without a size hint the growth stays a
// small multiple of input already read.
func (fr *frameReader) readArcs(n int, offsets []int64, nbrs []Vertex, ports []int32) ([]Vertex, []int32, error) {
	var run []Vertex // the current row's ascending run
	for v := 0; v < n; v++ {
		o, e := offsets[v], offsets[v+1]
		deg := int(e - o)
		k := -1
		if 2*int64(deg) <= int64(len(fr.buf)-fr.pos) {
			run, ports = slices.Grow(run[:0], deg)[:deg], slices.Grow(ports, deg)[:e]
			var err error
			if k, err = decodeRow(fr.buf[fr.pos:], v, n, run, ports[o:e]); err != nil {
				return nil, nil, err
			}
		}
		if k >= 0 {
			fr.pos += k
		} else {
			run, ports = run[:0], ports[:o]
			prev := int64(-1)
			for j := 0; j < deg; j++ {
				x := fr.u64()
				if fr.err != nil {
					return nil, nil, fr.err
				}
				next, ok := runStep(prev, x, j, n)
				if !ok {
					return nil, nil, runStepError(v, n, j, prev, x)
				}
				run = append(run, Vertex(next))
				prev = next
			}
			for j := 0; j < deg; j++ {
				x := fr.u64()
				if fr.err != nil {
					return nil, nil, fr.err
				}
				if x >= uint64(deg) {
					return nil, nil, portError(v, x, deg)
				}
				ports = append(ports, int32(x))
			}
		}
		nbrs = slices.Grow(nbrs, deg)[:e]
		row := nbrs[o:e]
		for p := range row {
			row[p] = NilVertex
		}
		for i, p := range ports[o:e] {
			if row[p] != NilVertex {
				return nil, nil, fmt.Errorf("graph: vertex %d lists port %d twice", v, p)
			}
			row[p] = run[i]
		}
	}
	return nbrs, ports, nil
}

// decodeRow decodes row v — len(run) gaps, then as many ports — from
// the front of p into run and prt, and returns the bytes it consumed.
// Single-byte varints, the bulk of every row, decode inline. It
// returns -1 when the row runs past the end of p or holds an
// overlong varint; the caller then re-reads the row through u64,
// which crosses into the next frame or reports the varint error.
func decodeRow(p []byte, v, n int, run []Vertex, prt []int32) (int, error) {
	i := 0
	prev := int64(-1)
	for j := range run {
		var x uint64
		if i < len(p) && p[i] < 0x80 {
			x = uint64(p[i])
			i++
		} else {
			var k int
			if x, k = binary.Uvarint(p[i:]); k <= 0 {
				return -1, nil
			}
			i += k
		}
		next, ok := runStep(prev, x, j, n)
		if !ok {
			return 0, runStepError(v, n, j, prev, x)
		}
		run[j] = Vertex(next)
		prev = next
	}
	deg := uint64(len(prt))
	for j := range prt {
		var x uint64
		if i < len(p) && p[i] < 0x80 {
			x = uint64(p[i])
			i++
		} else {
			var k int
			if x, k = binary.Uvarint(p[i:]); k <= 0 {
				return -1, nil
			}
			i += k
		}
		if x >= deg {
			return 0, portError(v, x, len(prt))
		}
		prt[j] = int32(x)
	}
	return i, nil
}

// runStep applies the j-th gap x of an n-vertex graph's ascending
// neighbor run after entry prev (the first gap counts from 0, with
// prev = -1): the next entry, and whether it is in range and strictly
// above prev. Any valid gap is below n; the unsigned test also keeps
// the int64 arithmetic from wrapping on a crafted gap.
func runStep(prev int64, x uint64, j, n int) (int64, bool) {
	next := prev + int64(x)
	if j == 0 {
		next++
	}
	return next, x < uint64(n) && (x != 0 || j == 0) && next < int64(n)
}

// runStepError explains why runStep rejected gap x in row v.
func runStepError(v, n, j int, prev int64, x uint64) error {
	if x >= uint64(n) {
		return fmt.Errorf("graph: vertex %d has out-of-range neighbor gap %d", v, x)
	}
	if j > 0 && x == 0 {
		return fmt.Errorf("graph: parallel edge %d-%d", v, prev)
	}
	next, _ := runStep(prev, x, j, n)
	return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", v, next)
}

// portError rejects port p in a row of degree deg.
func portError(v int, p uint64, deg int) error {
	return fmt.Errorf("graph: vertex %d has port %d outside [0,%d)", v, p, deg)
}

// sizeHintOf reports how many bytes remain in r when r exposes its
// size — in-memory readers via Len (bytes.Reader, strings.Reader),
// regular files via Stat and the current offset — and -1 otherwise.
func sizeHintOf(r io.Reader) int64 {
	if l, ok := r.(interface{ Len() int }); ok {
		return int64(l.Len())
	}
	type statSeeker interface {
		io.Seeker
		Stat() (fs.FileInfo, error)
	}
	if f, ok := r.(statSeeker); ok {
		if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() {
			if pos, err := f.Seek(0, io.SeekCurrent); err == nil && pos >= 0 && pos <= fi.Size() {
				return fi.Size() - pos
			}
		}
	}
	return -1
}

// maxReasonableN bounds the vertex count either parser accepts before
// allocating anything proportional to it.
const maxReasonableN = 1 << 28

// Read parses a graph in any serialization format — v3 chunked
// binary, v2 binary, or v1 text, auto-detected from the leading
// bytes — and validates it. v3 decodes streaming with O(chunk)
// transient memory; the size hint for its check-before-allocate guard
// is sniffed from r before any buffering.
func Read(r io.Reader) (*Graph, error) {
	sizeHint := sizeHintOf(r)
	br := bufio.NewReaderSize(r, 1<<16)
	head, err := br.Peek(len(binMagic))
	if err == nil && bytes.Equal(head[:len(binMagic)-1], binMagic[:len(binMagic)-1]) {
		switch head[len(binMagic)-1] {
		case binMagic[len(binMagic)-1]:
			return readBinary(br)
		case binMagicV3[len(binMagicV3)-1]:
			return readBinaryV3(br, sizeHint)
		default:
			return nil, fmt.Errorf("graph: unsupported binary format version %d", head[len(binMagic)-1])
		}
	}
	return readText(br)
}

// readBinary decodes the v2 binary format. The payload is read whole
// and decoded in place: at n=65536, δ=256 that is a ~35 MB transient
// buffer against a ~1 GB decoded graph, and slice-indexed varint
// decoding is what makes binary reads ~30× faster than v1 text.
func readBinary(br *bufio.Reader) (*Graph, error) {
	data, err := io.ReadAll(br)
	if err != nil {
		return nil, fmt.Errorf("graph: reading binary payload: %w", err)
	}
	if len(data) < len(binMagic)+4 {
		return nil, errors.New("graph: binary payload truncated before header")
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if sum := crc32.Checksum(body, crcTable); sum != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("graph: binary checksum mismatch (corrupt or truncated payload)")
	}
	fr := &frameReader{buf: body[len(binMagic):], end: true}
	nU, nPrimeU, arcsU := fr.u64(), fr.u64(), fr.u64()
	if fr.err != nil {
		return nil, fmt.Errorf("graph: binary header: %w", fr.err)
	}
	if nU > maxReasonableN {
		return nil, fmt.Errorf("graph: unreasonable n=%d", nU)
	}
	if nPrimeU > math.MaxInt64 {
		return nil, fmt.Errorf("graph: n'=%d overflows the ID space", nPrimeU)
	}
	if arcsU > math.MaxInt32 {
		return nil, fmt.Errorf("graph: arc count %d exceeds v2 format capacity (max %d arcs; use the v3 format)", arcsU, math.MaxInt32)
	}
	n, arcs := int(nU), int(arcsU)
	// Every varint is at least one byte; reject counts the remaining
	// payload cannot possibly hold before allocating for them.
	if left := len(fr.buf) - fr.pos; int64(2*n)+2*int64(arcs) > int64(left) {
		return nil, fmt.Errorf("graph: binary payload truncated (%d bytes for n=%d, %d arcs)", left, n, arcs)
	}
	ids := make([]int64, n)
	prev := int64(0)
	for i := range ids {
		prev += fr.i64()
		ids[i] = prev
	}
	offsets := make([]int64, n+1)
	total := uint64(0)
	for v := 0; v < n; v++ {
		deg := fr.u64()
		// Compare against the remaining capacity rather than summing
		// first: a crafted degree near 2^64 would wrap the sum past
		// both this check and the final equality, planting negative
		// offsets. This form keeps total ≤ arcsU ≤ MaxInt32 invariant.
		if deg > arcsU-total {
			return nil, fmt.Errorf("graph: degree sum exceeds declared arc count %d", arcsU)
		}
		total += deg
		offsets[v+1] = int64(total)
	}
	if fr.err != nil {
		return nil, fmt.Errorf("graph: binary payload: %w", fr.err)
	}
	if total != arcsU {
		return nil, fmt.Errorf("graph: degree sum %d does not match declared arc count %d", total, arcsU)
	}
	nbrs, ports, err := fr.readArcs(n, offsets, make([]Vertex, 0, arcs), make([]int32, 0, arcs))
	if err != nil {
		if err == fr.err {
			err = fmt.Errorf("graph: binary payload: %w", err)
		}
		return nil, err
	}
	if err := fr.finish(); err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	return fromCSR(ids, offsets, nbrs, ports, int64(nPrimeU))
}

// readText parses the v1 text format. Rows are handed out as byte
// slices viewing the bufio buffer (ReadSlice, no copy) and fields are
// scanned in place — no strings.Fields, no per-row slices — landing
// directly in the graph's flat CSR arrays, so parse cost is linear
// with O(1) allocations per row.
func readText(br *bufio.Reader) (*Graph, error) {
	lr := &lineReader{br: br}
	hdr, err := lr.line()
	if err != nil {
		return nil, fmt.Errorf("graph: reading header: %w", err)
	}
	if strings.TrimSpace(string(hdr)) != formatHeader {
		return nil, fmt.Errorf("graph: bad header %q", hdr)
	}
	sizes, err := lr.line()
	if err != nil {
		return nil, fmt.Errorf("graph: reading sizes: %w", err)
	}
	var n int
	var nPrime int64
	if _, err := fmt.Sscanf(strings.TrimSpace(string(sizes)), "n=%d nprime=%d", &n, &nPrime); err != nil {
		return nil, fmt.Errorf("graph: bad size line %q: %w", sizes, err)
	}
	if n < 0 || n > maxReasonableN {
		return nil, fmt.Errorf("graph: unreasonable n=%d", n)
	}
	row, err := lr.line()
	if err != nil {
		return nil, fmt.Errorf("graph: reading ids: %w", err)
	}
	fs := fieldScanner{line: row}
	if err := fs.expectWord("ids"); err != nil {
		return nil, fmt.Errorf("graph: bad ids line: %w", err)
	}
	// Grow ids as fields actually arrive (and allocate offsets only
	// after all n arrived): a forged header declaring a huge n must
	// not cost O(n) memory on a few bytes of input — the same
	// check-before-allocate discipline as the binary reader.
	ids := make([]int64, 0, min(n, 1<<16))
	for i := 0; i < n; i++ {
		id, err := fs.int64Field()
		if err != nil {
			return nil, fmt.Errorf("graph: bad ids line (field %d of %d): %w", i+1, n, err)
		}
		ids = append(ids, id)
	}
	if err := fs.expectEOL(); err != nil {
		return nil, fmt.Errorf("graph: bad ids line (more than n=%d fields): %w", n, err)
	}
	offsets := make([]int64, n+1)
	var nbrs []Vertex
	for i := 0; i < n; i++ {
		row, err := lr.line()
		if err != nil {
			return nil, fmt.Errorf("graph: reading adj row %d: %w", i, err)
		}
		fs := fieldScanner{line: row}
		if err := fs.expectWord("adj"); err != nil {
			return nil, fmt.Errorf("graph: bad adj row %d: %w", i, err)
		}
		v, err := fs.int64Field()
		if err != nil || v != int64(i) {
			return nil, fmt.Errorf("graph: adj row %d labeled %d (err %v)", i, v, err)
		}
		for {
			w, ok, err := fs.int64FieldOrEOL()
			if err != nil {
				return nil, fmt.Errorf("graph: bad neighbor in adj row %d: %w", i, err)
			}
			if !ok {
				break
			}
			if w < math.MinInt32 || w > math.MaxInt32 {
				return nil, fmt.Errorf("graph: neighbor %d of vertex %d overflows the vertex index space", w, i)
			}
			if int64(len(nbrs)) >= math.MaxInt32 {
				return nil, fmt.Errorf("graph: arc count exceeds v1 text capacity (max %d arcs; use the v3 binary format)", math.MaxInt32)
			}
			nbrs = append(nbrs, Vertex(w))
		}
		offsets[i+1] = int64(len(nbrs))
	}
	row, err = lr.line()
	if err != nil {
		return nil, fmt.Errorf("graph: reading trailer: %w", err)
	}
	if strings.TrimSpace(string(row)) != "end" {
		return nil, fmt.Errorf("graph: bad trailer %q", row)
	}
	return fromCSR(ids, offsets, nbrs, nil, nPrime)
}

// lineReader hands out '\n'-terminated rows as byte slices without
// copying: views into the bufio buffer when the row fits (the common
// case), a reused spill buffer otherwise. Each returned slice is valid
// only until the next call. The final row may omit its terminator.
type lineReader struct {
	br  *bufio.Reader
	buf []byte // spill for rows longer than the bufio buffer
}

func (lr *lineReader) line() ([]byte, error) {
	s, err := lr.br.ReadSlice('\n')
	switch err {
	case nil:
		return s[:len(s)-1], nil
	case io.EOF:
		if len(s) == 0 {
			return nil, io.ErrUnexpectedEOF
		}
		return s, nil
	case bufio.ErrBufferFull:
		lr.buf = append(lr.buf[:0], s...)
		for {
			s, err = lr.br.ReadSlice('\n')
			lr.buf = append(lr.buf, s...)
			switch err {
			case nil:
				return lr.buf[:len(lr.buf)-1], nil
			case io.EOF:
				if len(lr.buf) == 0 {
					return nil, io.ErrUnexpectedEOF
				}
				return lr.buf, nil
			case bufio.ErrBufferFull:
				continue
			default:
				return nil, err
			}
		}
	default:
		return nil, err
	}
}

// fieldScanner walks the whitespace-separated fields of one row in
// place. Spaces, tabs and '\r' separate fields.
type fieldScanner struct {
	line []byte
	pos  int
}

// next returns the next field as a subslice of the row; ok=false means
// the row is exhausted.
func (fs *fieldScanner) next() ([]byte, bool) {
	i := fs.pos
	line := fs.line
	for i < len(line) && (line[i] == ' ' || line[i] == '\t' || line[i] == '\r') {
		i++
	}
	if i >= len(line) {
		fs.pos = i
		return nil, false
	}
	start := i
	for i < len(line) && line[i] != ' ' && line[i] != '\t' && line[i] != '\r' {
		i++
	}
	fs.pos = i
	return line[start:i], true
}

// expectWord consumes the next field and fails unless it equals word.
func (fs *fieldScanner) expectWord(word string) error {
	tok, ok := fs.next()
	if !ok {
		return fmt.Errorf("unexpected end of row (want %q)", word)
	}
	if string(tok) != word {
		return fmt.Errorf("unexpected field %q (want %q)", tok, word)
	}
	return nil
}

// expectEOL fails on any extra field left on the row.
func (fs *fieldScanner) expectEOL() error {
	if tok, ok := fs.next(); ok {
		return fmt.Errorf("unexpected extra field %q", tok)
	}
	return nil
}

// int64Field parses the next field as a decimal int64, failing at
// end-of-row.
func (fs *fieldScanner) int64Field() (int64, error) {
	x, ok, err := fs.int64FieldOrEOL()
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, errors.New("unexpected end of row (want an integer)")
	}
	return x, nil
}

// int64FieldOrEOL parses the next field as a decimal int64; ok=false
// means the row ended first.
func (fs *fieldScanner) int64FieldOrEOL() (int64, bool, error) {
	tok, ok := fs.next()
	if !ok {
		return 0, false, nil
	}
	x, err := parseInt64(tok)
	if err != nil {
		return 0, false, err
	}
	return x, true, nil
}

// parseInt64 is strconv.ParseInt for a byte slice, sparing the string
// conversion on the per-arc hot path.
func parseInt64(b []byte) (int64, error) {
	if len(b) == 0 {
		return 0, errors.New("empty integer field")
	}
	neg := false
	i := 0
	if b[0] == '+' || b[0] == '-' {
		neg = b[0] == '-'
		i = 1
		if len(b) == 1 {
			return 0, fmt.Errorf("bad integer %q", b)
		}
	}
	const cutoff = math.MaxInt64/10 + 1
	un := uint64(0)
	for ; i < len(b); i++ {
		c := b[i]
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("bad integer %q", b)
		}
		if un >= cutoff {
			return 0, fmt.Errorf("integer %q out of range", b)
		}
		un = un*10 + uint64(c-'0')
	}
	if neg {
		if un > uint64(math.MaxInt64)+1 {
			return 0, fmt.Errorf("integer %q out of range", b)
		}
		return -int64(un), nil
	}
	if un > math.MaxInt64 {
		return 0, fmt.Errorf("integer %q out of range", b)
	}
	return int64(un), nil
}
