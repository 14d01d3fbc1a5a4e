package engine

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"

	"fnr/internal/atomicio"
)

// This file holds the engine's one reduced path and makes it durable:
// RunReduced folds every finished chunk into a shared journal reducer,
// which serializes (plus the identity of the batch that produced it)
// to a versioned, CRC-framed checkpoint journal, rewritten on disk
// every K trials when a path is given. A resumed run loads the
// journal, skips exactly the covered global trial indices, and merges
// — so kill -9 at any point costs at most the last flush interval,
// and the resumed run's aggregate is byte-identical to an
// uninterrupted one (reducer merging is partition-insensitive; see
// reduce.go).
//
// Wire format (the v3 chunk-framing idiom of internal/graph/io.go):
//
//	magic   8 bytes: "fnrckpt" + version byte 0x01 or 0x02
//	frame   uvarint plen (1 ≤ plen ≤ 4 MiB), plen payload bytes,
//	        crc32c (Castagnoli, little-endian) of those payload bytes
//	...     more frames; the logical payload stream continues across
//	        frame boundaries
//	end     uvarint 0, then crc32c of every wire byte before it
//
// A truncated file fails the end-marker or stream-CRC check; a
// corrupted byte fails its frame's CRC; a torn write never exists
// because the journal is only written through atomicio.
//
// Payload stream (all integers uvarint, strings length-prefixed):
//
//	identity  algorithm, batch seed, trials, delta, maxRounds,
//	          startA, startB, graph n, fault plan (flag + seed +
//	          three probability bit patterns)
//	scenario  (version 0x02 only) agent count k, k start vertices,
//	          delays flag + k wake delays when set, meeting-predicate
//	          flag (1 = first pair)
//	reducer   trials, met, errors; rounds and moves value→count
//	          tables (ascending values); error log entries
//	          (trial, message); coalesced covered spans (lo, hi)
//
// Version selection: a legacy two-agent batch (nil Scenario after
// normalization — see Batch.normalized) writes 0x01, byte-identical
// to pre-scenario journals; a batch carrying a real scenario writes
// 0x02 with the scenario identity section. A version/batch mismatch
// fails identity validation like any other identity drift.
const (
	ckptMagic    = "fnrckpt\x01"
	ckptMagicV2  = "fnrckpt\x02"
	ckptFrameMax = 4 << 20
	// ckptFrameTarget is where the writer cuts a frame; single
	// appends are tiny, so frames never approach ckptFrameMax.
	ckptFrameTarget = 1 << 20
)

var ckptCRC = crc32.MakeTable(crc32.Castagnoli)

// DefaultCheckpointEvery is the flush cadence RunReduced uses when
// Checkpoint.Every is 0: frequent enough that a crash loses seconds of
// work, rare enough that journal writes stay invisible next to the
// trials between them.
const DefaultCheckpointEvery = 1 << 17

// Checkpoint configures RunReduced's journal: the path the journal is
// (atomically) rewritten at, and how many absorbed trials may pass
// between rewrites. The zero value writes no journal.
type Checkpoint struct {
	Path  string
	Every int
}

// RunReduced is Run stopping one step earlier: it returns the batch's
// merged reducer instead of the final aggregate. This is the
// composition point for sharded sweeps — run each shard (same Batch,
// different ShardIndex) in its own process, Merge the reducers, and
// Aggregate the merge; the result is byte-identical to the unsharded
// run. A reducer carries its trial coverage in Spans.
//
// resume (if non-nil, typically loaded via ReadCheckpointFile)
// contributes its already-covered trials, and only the uncovered
// global trial ranges run. With ck.Path set, the merged state is
// rewritten there — atomically, so a crash mid-write cannot tear it —
// every ck.Every absorbed trials and once more on return. A zero
// Checkpoint with a nil resume is the plain run.
//
// Cancelling ctx stops the run at the next chunk boundary and returns
// the merged state completed so far TOGETHER WITH ctx.Err(): every
// trial the reducer absorbed is listed in its Spans, nothing half-run
// is included, no goroutine outlives the call, and the final flush
// still happens, so a cancelled run resumes too. A journal write
// failure is sticky (later flushes are skipped) and is returned after
// the run completes — the computation itself never stops for a disk
// problem.
func RunReduced(ctx context.Context, b Batch, ck Checkpoint, resume *Reducer) (*Reducer, error) {
	b = b.normalized()
	spec, opts, err := b.prepare()
	if err != nil {
		return nil, err
	}
	lo, hi := b.shardSpan()
	j := &journal{b: b, ck: ck, r: NewReducer()}
	j.r.mergeFrom(resume)
	for _, gap := range uncovered(lo, hi, j.r.Spans()) {
		runLanes(ctx, b, spec, opts, gap.Lo, gap.Hi, NewReducer,
			func(r *Reducer, trial int, o Outcome) { r.Add(trial, o) },
			j.absorb)
		if ctx.Err() != nil {
			break
		}
	}
	if err := j.finalFlush(); err != nil {
		return j.r, err
	}
	return j.r, ctx.Err()
}

// uncovered returns the maximal subranges of [lo, hi) not covered by
// the given coalesced, sorted spans — the trials a resumed run still
// has to execute.
func uncovered(lo, hi int, covered []TrialSpan) []TrialSpan {
	var out []TrialSpan
	cur := lo
	for _, s := range covered {
		if s.Hi <= cur {
			continue
		}
		if s.Lo >= hi {
			break
		}
		if s.Lo > cur {
			out = append(out, TrialSpan{Lo: cur, Hi: s.Lo})
		}
		cur = s.Hi
		if cur >= hi {
			return out
		}
	}
	if cur < hi {
		out = append(out, TrialSpan{Lo: cur, Hi: hi})
	}
	return out
}

// journal is the shared state the workers' chunk reducers merge
// into. The mutex is cold: it is taken once per 64-trial chunk and
// once per journal rewrite, never per trial.
type journal struct {
	mu    sync.Mutex
	b     Batch
	ck    Checkpoint
	r     *Reducer
	fresh int   // trials absorbed since the last flush
	err   error // first flush failure (sticky)
}

func (j *journal) every() int {
	if j.ck.Every > 0 {
		return j.ck.Every
	}
	return DefaultCheckpointEvery
}

// absorb folds one worker's chunk reducer, covering global trials
// [from, to), into the journal, flushes when the cadence is due, and
// empties the chunk reducer for the worker's next chunk — so
// worker-local state stays one chunk deep and a crash loses at most
// the chunks not yet absorbed. It is runLanes' cover hook.
func (j *journal) absorb(part *Reducer, from, to int) {
	part.AddSpan(from, to)
	j.mu.Lock()
	defer j.mu.Unlock()
	j.fresh += part.trials
	j.r.mergeFrom(part)
	part.reset()
	if j.fresh >= j.every() {
		j.flushLocked()
	}
}

// flushLocked settles the span cover — chunk merges append lazily
// (see Reducer.AddSpan), so this keeps the list bounded — and
// rewrites the journal file when there is one.
func (j *journal) flushLocked() {
	j.fresh = 0
	j.r.spans = coalesceSpans(j.r.spans)
	if j.ck.Path == "" || j.err != nil {
		return
	}
	if err := WriteCheckpointFile(j.ck.Path, j.b, j.r); err != nil {
		j.err = err
	}
}

func (j *journal) finalFlush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.flushLocked()
	return j.err
}

// WriteCheckpointFile atomically writes the batch's checkpoint to
// path (see WriteCheckpoint).
func WriteCheckpointFile(path string, b Batch, r *Reducer) error {
	return atomicio.WriteFile(path, func(w io.Writer) error {
		return WriteCheckpoint(w, b, r)
	})
}

// ReadCheckpointFile loads and validates the checkpoint at path (see
// ReadCheckpoint).
func ReadCheckpointFile(path string, b Batch) (*Reducer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("engine: checkpoint: %w", err)
	}
	defer f.Close()
	return ReadCheckpoint(f, b)
}

// WriteCheckpoint serializes the reducer, stamped with b's identity,
// to the journal wire format.
func WriteCheckpoint(w io.Writer, b Batch, r *Reducer) error {
	b = b.normalized()
	cw := &ckptWriter{w: w, crc: crc32.New(ckptCRC)}
	if b.Scenario != nil {
		cw.wire([]byte(ckptMagicV2))
	} else {
		cw.wire([]byte(ckptMagic))
	}
	// Identity section.
	cw.str(b.Algorithm)
	cw.u64(b.Seed)
	cw.u64(uint64(b.Trials))
	cw.u64(uint64(b.Delta))
	cw.u64(uint64(b.MaxRounds))
	cw.u64(uint64(b.StartA))
	cw.u64(uint64(b.StartB))
	n := 0
	if b.Graph != nil {
		n = b.Graph.N()
	}
	cw.u64(uint64(n))
	if f := b.Faults; f != nil {
		cw.u64(1)
		cw.u64(f.Seed)
		cw.u64(math.Float64bits(f.PPanic))
		cw.u64(math.Float64bits(f.PStall))
		cw.u64(math.Float64bits(f.PBuildErr))
	} else {
		cw.u64(0)
	}
	// Scenario identity section (v2 journals only).
	if sc := b.Scenario; sc != nil {
		cw.u64(uint64(sc.K()))
		for _, s := range sc.Starts {
			cw.u64(uint64(s))
		}
		if len(sc.WakeDelays) > 0 {
			cw.u64(1)
			for _, d := range sc.WakeDelays {
				cw.u64(uint64(d))
			}
		} else {
			cw.u64(0)
		}
		if sc.MeetFirstPair {
			cw.u64(1)
		} else {
			cw.u64(0)
		}
	}
	// Reducer section.
	cw.u64(uint64(r.trials))
	cw.u64(uint64(r.met))
	cw.u64(uint64(r.errors))
	for _, d := range []*distCounter{&r.rounds, &r.moves} {
		cw.u64(uint64(len(d.vals)))
		for i, v := range d.vals {
			cw.u64(uint64(v))
			cw.u64(uint64(d.counts[i]))
		}
	}
	cw.u64(uint64(len(r.errs.entries)))
	for _, e := range r.errs.entries {
		cw.u64(uint64(e.trial))
		cw.str(e.msg)
	}
	spans := r.Spans()
	cw.u64(uint64(len(spans)))
	for _, s := range spans {
		cw.u64(uint64(s.Lo))
		cw.u64(uint64(s.Hi))
	}
	return cw.end()
}

// ReadCheckpoint deserializes a checkpoint and validates both its
// integrity (framing, CRCs) and its identity against the batch the
// caller is about to resume: a journal written for a different
// algorithm, seed, trial count, graph size, budget, start pair,
// fault plan or scenario must fail loudly here, never resume into
// silently mixed statistics.
func ReadCheckpoint(rd io.Reader, b Batch) (*Reducer, error) {
	b = b.normalized()
	cr, err := newCkptReader(rd)
	if err != nil {
		return nil, err
	}
	// Identity section.
	n := 0
	if b.Graph != nil {
		n = b.Graph.N()
	}
	idChecks := []struct {
		field string
		got   func() (any, any, bool)
	}{
		{"algorithm", func() (any, any, bool) { v := cr.str(); return v, b.Algorithm, v == b.Algorithm }},
		{"seed", func() (any, any, bool) { v := cr.u64(); return v, b.Seed, v == b.Seed }},
		{"trials", func() (any, any, bool) { v := cr.u64(); return v, b.Trials, v == uint64(b.Trials) }},
		{"delta", func() (any, any, bool) { v := cr.u64(); return v, b.Delta, v == uint64(b.Delta) }},
		{"max_rounds", func() (any, any, bool) { v := cr.u64(); return v, b.MaxRounds, v == uint64(b.MaxRounds) }},
		{"start_a", func() (any, any, bool) { v := cr.u64(); return v, b.StartA, v == uint64(b.StartA) }},
		{"start_b", func() (any, any, bool) { v := cr.u64(); return v, b.StartB, v == uint64(b.StartB) }},
		{"graph_n", func() (any, any, bool) { v := cr.u64(); return v, n, v == uint64(n) }},
		{"fault_plan", func() (any, any, bool) {
			present := cr.u64()
			if b.Faults == nil {
				return present, 0, present == 0
			}
			if present != 1 {
				return present, 1, false
			}
			ok := cr.u64() == b.Faults.Seed &&
				cr.u64() == math.Float64bits(b.Faults.PPanic) &&
				cr.u64() == math.Float64bits(b.Faults.PStall) &&
				cr.u64() == math.Float64bits(b.Faults.PBuildErr)
			return "(differs)", "(batch plan)", ok
		}},
		{"scenario", func() (any, any, bool) {
			sc := b.Scenario
			switch {
			case cr.version == 1 && sc == nil:
				return "none", "none", true
			case cr.version == 1:
				return "none (v1 journal)", fmt.Sprintf("%d agents", sc.K()), false
			case sc == nil:
				return "present (v2 journal)", "legacy two-agent batch", false
			}
			if k := cr.count(); k != sc.K() {
				return k, sc.K(), false
			}
			for _, s := range sc.Starts {
				if v := cr.u64(); cr.err == nil && v != uint64(s) {
					return "(start vertices differ)", "(batch scenario)", false
				}
			}
			wantDelays := uint64(0)
			if len(sc.WakeDelays) > 0 {
				wantDelays = 1
			}
			if flag := cr.u64(); cr.err == nil && flag != wantDelays {
				return "(wake delays differ)", "(batch scenario)", false
			} else if flag == 1 && cr.err == nil {
				for _, d := range sc.WakeDelays {
					if v := cr.u64(); cr.err == nil && v != uint64(d) {
						return "(wake delays differ)", "(batch scenario)", false
					}
				}
			}
			wantMeet := uint64(0)
			if sc.MeetFirstPair {
				wantMeet = 1
			}
			if v := cr.u64(); cr.err == nil && v != wantMeet {
				return "(meeting predicate differs)", "(batch scenario)", false
			}
			return "scenario", "scenario", true
		}},
	}
	for _, c := range idChecks {
		got, want, ok := c.got()
		if cr.err != nil {
			return nil, cr.fail()
		}
		if !ok {
			return nil, fmt.Errorf("engine: checkpoint is for a different batch: %s %v, want %v", c.field, got, want)
		}
	}
	// Reducer section. The loops stop at the first decode error, so a
	// count claiming more entries than the payload carries costs
	// O(payload), not O(count).
	r := NewReducer()
	r.trials = cr.count()
	r.met = cr.count()
	r.errors = cr.count()
	for _, d := range []*distCounter{&r.rounds, &r.moves} {
		k := cr.count()
		d.vals = make([]int64, 0, min(k, 1<<16))
		d.counts = make([]int64, 0, min(k, 1<<16))
		prev := int64(-1)
		for i := 0; i < k && cr.err == nil; i++ {
			v, c := int64(cr.u64()), int64(cr.u64())
			if cr.err == nil && (v <= prev || c < 1) {
				cr.err = errors.New("value table not ascending")
			}
			prev = v
			d.vals = append(d.vals, v)
			d.counts = append(d.counts, c)
			d.n += c
		}
	}
	k := cr.count()
	for i := 0; i < k && cr.err == nil; i++ {
		trial := cr.count()
		r.errs.note(trial, cr.str())
	}
	k = cr.count()
	for i := 0; i < k && cr.err == nil; i++ {
		lo, hi := cr.count(), cr.count()
		r.AddSpan(lo, hi)
	}
	if err := cr.finish(); err != nil {
		return nil, err
	}
	return r, nil
}

// ckptWriter frames a payload stream onto the wire (see the file
// comment for the format).
type ckptWriter struct {
	w   io.Writer
	crc hash.Hash32 // whole-stream digest of every wire byte
	buf []byte      // pending payload of the open frame
	err error
}

// wire writes raw wire bytes (magic, frame headers, CRCs) straight
// through, feeding the stream digest.
func (cw *ckptWriter) wire(p []byte) {
	if cw.err != nil {
		return
	}
	cw.crc.Write(p)
	if _, err := cw.w.Write(p); err != nil {
		cw.err = fmt.Errorf("engine: checkpoint: %w", err)
	}
}

func (cw *ckptWriter) u64(x uint64) {
	var vbuf [binary.MaxVarintLen64]byte
	cw.buf = append(cw.buf, vbuf[:binary.PutUvarint(vbuf[:], x)]...)
	if len(cw.buf) >= ckptFrameTarget {
		cw.flushFrame()
	}
}

func (cw *ckptWriter) str(s string) {
	cw.u64(uint64(len(s)))
	cw.buf = append(cw.buf, s...)
	if len(cw.buf) >= ckptFrameTarget {
		cw.flushFrame()
	}
}

func (cw *ckptWriter) flushFrame() {
	if len(cw.buf) == 0 {
		return
	}
	var hdr [binary.MaxVarintLen64]byte
	cw.wire(hdr[:binary.PutUvarint(hdr[:], uint64(len(cw.buf)))])
	cw.wire(cw.buf)
	var fcrc [4]byte
	binary.LittleEndian.PutUint32(fcrc[:], crc32.Checksum(cw.buf, ckptCRC))
	cw.wire(fcrc[:])
	cw.buf = cw.buf[:0]
}

// end flushes the last frame, writes the end marker and the
// whole-stream CRC, and reports any deferred write error.
func (cw *ckptWriter) end() error {
	cw.flushFrame()
	cw.wire([]byte{0})
	var tb [4]byte
	binary.LittleEndian.PutUint32(tb[:], cw.crc.Sum32())
	if cw.err == nil {
		if _, err := cw.w.Write(tb[:]); err != nil {
			cw.err = fmt.Errorf("engine: checkpoint: %w", err)
		}
	}
	return cw.err
}

// ckptReader validates the wire (frame CRCs, end marker, stream CRC)
// up front and then decodes the reassembled payload stream. Decode
// errors are sticky; values after an error are zero.
type ckptReader struct {
	payload []byte
	pos     int
	version int
	err     error
}

func newCkptReader(rd io.Reader) (*ckptReader, error) {
	br := bufio.NewReaderSize(rd, 1<<16)
	crc := crc32.New(ckptCRC)
	wire := func(p []byte) error {
		if _, err := io.ReadFull(br, p); err != nil {
			return err
		}
		crc.Write(p)
		return nil
	}
	var magic [8]byte
	if err := wire(magic[:]); err != nil {
		return nil, fmt.Errorf("engine: checkpoint: reading magic: %w", err)
	}
	var version int
	switch string(magic[:]) {
	case ckptMagic:
		version = 1
	case ckptMagicV2:
		version = 2
	default:
		return nil, errors.New("engine: checkpoint: bad magic (not a checkpoint journal, or unsupported version)")
	}
	var payload bytes.Buffer
	var b [1]byte
	for {
		// Frame length, uvarint byte-by-byte through the digest.
		var plen uint64
		for shift := 0; ; shift += 7 {
			if err := wire(b[:]); err != nil {
				return nil, fmt.Errorf("engine: checkpoint: truncated (frame header): %w", err)
			}
			plen |= uint64(b[0]&0x7f) << shift
			if b[0] < 0x80 {
				break
			}
			if shift >= 56 {
				return nil, errors.New("engine: checkpoint: corrupt frame length")
			}
		}
		if plen == 0 {
			break // end marker
		}
		if plen > ckptFrameMax {
			return nil, fmt.Errorf("engine: checkpoint: frame length %d exceeds limit", plen)
		}
		frame := make([]byte, plen)
		if err := wire(frame); err != nil {
			return nil, fmt.Errorf("engine: checkpoint: truncated (frame body): %w", err)
		}
		var fcrc [4]byte
		if err := wire(fcrc[:]); err != nil {
			return nil, fmt.Errorf("engine: checkpoint: truncated (frame CRC): %w", err)
		}
		if crc32.Checksum(frame, ckptCRC) != binary.LittleEndian.Uint32(fcrc[:]) {
			return nil, errors.New("engine: checkpoint: frame CRC mismatch (corrupt journal)")
		}
		payload.Write(frame)
	}
	want := crc.Sum32()
	var tb [4]byte
	if _, err := io.ReadFull(br, tb[:]); err != nil {
		return nil, fmt.Errorf("engine: checkpoint: truncated (stream CRC): %w", err)
	}
	if binary.LittleEndian.Uint32(tb[:]) != want {
		return nil, errors.New("engine: checkpoint: stream CRC mismatch (corrupt journal)")
	}
	return &ckptReader{payload: payload.Bytes(), version: version}, nil
}

func (cr *ckptReader) u64() uint64 {
	if cr.err != nil {
		return 0
	}
	x, k := binary.Uvarint(cr.payload[cr.pos:])
	if k <= 0 {
		cr.err = errors.New("payload exhausted")
		return 0
	}
	cr.pos += k
	return x
}

// count decodes a uvarint that must fit a non-negative int.
func (cr *ckptReader) count() int {
	x := cr.u64()
	if cr.err == nil && x > uint64(math.MaxInt64) {
		cr.err = errors.New("count overflows int")
		return 0
	}
	return int(x)
}

func (cr *ckptReader) str() string {
	n := cr.count()
	if cr.err != nil {
		return ""
	}
	if n > len(cr.payload)-cr.pos {
		cr.err = errors.New("string length exceeds payload")
		return ""
	}
	s := string(cr.payload[cr.pos : cr.pos+n])
	cr.pos += n
	return s
}

func (cr *ckptReader) fail() error {
	return fmt.Errorf("engine: checkpoint: corrupt payload: %s", cr.err)
}

// finish asserts the payload decoded cleanly and completely.
func (cr *ckptReader) finish() error {
	if cr.err != nil {
		return cr.fail()
	}
	if cr.pos != len(cr.payload) {
		return errors.New("engine: checkpoint: trailing payload bytes (corrupt journal)")
	}
	return nil
}
