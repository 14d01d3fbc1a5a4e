package engine

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"path/filepath"
	"strings"
	"testing"

	"fnr/internal/graph"
	"fnr/internal/sim"
)

// checkpointBatch is the standard batch of the checkpoint tests:
// small enough to run in milliseconds, faulted so the error log and
// error counters are non-trivially populated.
func checkpointBatch(t *testing.T) Batch {
	t.Helper()
	g, sa, sb := testGraph(t)
	return Batch{
		Graph: g, StartA: sa, StartB: sb,
		Algorithm: "sweep", Delta: g.MinDegree(),
		Trials: 240, Seed: 17, MaxRounds: 1 << 22,
		Faults: &FaultPlan{Seed: 9, PPanic: 0.02, PBuildErr: 0.02},
	}
}

// A reducer must survive the wire unchanged: counters, distribution
// tables, error log and coverage spans all round-trip, and the
// aggregate of the reloaded reducer is byte-identical.
func TestCheckpointRoundtrip(t *testing.T) {
	b := checkpointBatch(t)
	r, err := RunReduced(t.Context(), b, Checkpoint{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, b, r); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()), b)
	if err != nil {
		t.Fatal(err)
	}
	wantAgg, _ := json.Marshal(r.Aggregate(b))
	gotAgg, _ := json.Marshal(got.Aggregate(b))
	if string(gotAgg) != string(wantAgg) {
		t.Errorf("aggregate changed across the wire:\ngot:  %s\nwant: %s", gotAgg, wantAgg)
	}
}

// A partial reducer — sparse coverage, scattered spans, a populated
// error log — round-trips too; this is the state a crash leaves.
func TestCheckpointRoundtripPartialCoverage(t *testing.T) {
	b := checkpointBatch(t)
	out, err := RunOutcomes(t.Context(), b)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReducer()
	for _, span := range []TrialSpan{{Lo: 0, Hi: 40}, {Lo: 64, Hi: 100}, {Lo: 180, Hi: 240}} {
		for i := span.Lo; i < span.Hi; i++ {
			r.Add(i, out[i])
		}
		r.AddSpan(span.Lo, span.Hi)
	}
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, b, r); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()), b)
	if err != nil {
		t.Fatal(err)
	}
	wantSpans, gotSpans := r.Spans(), got.Spans()
	if len(gotSpans) != len(wantSpans) {
		t.Fatalf("spans %v, want %v", gotSpans, wantSpans)
	}
	for i := range wantSpans {
		if gotSpans[i] != wantSpans[i] {
			t.Fatalf("spans %v, want %v", gotSpans, wantSpans)
		}
	}
	wantAgg, _ := json.Marshal(r.Aggregate(b))
	gotAgg, _ := json.Marshal(got.Aggregate(b))
	if string(gotAgg) != string(wantAgg) {
		t.Errorf("partial aggregate changed across the wire:\ngot:  %s\nwant: %s", gotAgg, wantAgg)
	}
}

// Truncating the journal anywhere, or flipping any byte, must fail
// the read — never load silently wrong state.
func TestCheckpointDetectsTruncationAndCorruption(t *testing.T) {
	b := checkpointBatch(t)
	r, err := RunReduced(t.Context(), b, Checkpoint{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, b, r); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()
	for _, cut := range []int{0, 3, 8, 9, len(wire) / 2, len(wire) - 5, len(wire) - 1} {
		if _, err := ReadCheckpoint(bytes.NewReader(wire[:cut]), b); err == nil {
			t.Errorf("truncation at %d/%d bytes read cleanly", cut, len(wire))
		}
	}
	for _, flip := range []int{0, 8, len(wire) / 2, len(wire) - 2} {
		mut := bytes.Clone(wire)
		mut[flip] ^= 0x40
		if _, err := ReadCheckpoint(bytes.NewReader(mut), b); err == nil {
			t.Errorf("bit flip at byte %d read cleanly", flip)
		}
	}
}

// A journal written for one batch must refuse to resume a different
// one, naming the mismatched identity field.
func TestCheckpointIdentityMismatch(t *testing.T) {
	b := checkpointBatch(t)
	r, err := RunReduced(t.Context(), b, Checkpoint{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, b, r); err != nil {
		t.Fatal(err)
	}
	mutations := []struct {
		field string
		mut   func(*Batch)
	}{
		{"algorithm", func(b *Batch) { b.Algorithm = "whiteboard" }},
		{"seed", func(b *Batch) { b.Seed++ }},
		{"trials", func(b *Batch) { b.Trials++ }},
		{"delta", func(b *Batch) { b.Delta-- }},
		{"max_rounds", func(b *Batch) { b.MaxRounds++ }},
		{"start_a", func(b *Batch) { b.StartA++ }},
		{"start_b", func(b *Batch) { b.StartB++ }},
		{"fault_plan", func(b *Batch) { f := *b.Faults; f.Seed++; b.Faults = &f }},
		{"fault_plan", func(b *Batch) { b.Faults = nil }},
	}
	for _, m := range mutations {
		mb := b
		m.mut(&mb)
		_, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()), mb)
		if err == nil || !strings.Contains(err.Error(), m.field) {
			t.Errorf("mutated %s: err %v, want mismatch naming the field", m.field, err)
		}
	}
	if _, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()), b); err != nil {
		t.Fatalf("unmutated batch failed to read back: %v", err)
	}
}

func TestUncovered(t *testing.T) {
	span := func(lo, hi int) TrialSpan { return TrialSpan{Lo: lo, Hi: hi} }
	cases := []struct {
		lo, hi  int
		covered []TrialSpan
		want    []TrialSpan
	}{
		{0, 10, nil, []TrialSpan{span(0, 10)}},
		{0, 10, []TrialSpan{span(0, 10)}, nil},
		{0, 10, []TrialSpan{span(0, 4)}, []TrialSpan{span(4, 10)}},
		{0, 10, []TrialSpan{span(6, 10)}, []TrialSpan{span(0, 6)}},
		{0, 10, []TrialSpan{span(2, 4), span(6, 8)}, []TrialSpan{span(0, 2), span(4, 6), span(8, 10)}},
		// Coverage outside [lo, hi) — another shard's spans — is inert.
		{10, 20, []TrialSpan{span(0, 5), span(12, 14), span(25, 30)}, []TrialSpan{span(10, 12), span(14, 20)}},
		{10, 20, []TrialSpan{span(0, 30)}, nil},
		{5, 5, nil, nil},
	}
	for i, c := range cases {
		got := uncovered(c.lo, c.hi, c.covered)
		if len(got) != len(c.want) {
			t.Errorf("case %d: uncovered(%d, %d, %v) = %v, want %v", i, c.lo, c.hi, c.covered, got, c.want)
			continue
		}
		for j := range got {
			if got[j] != c.want[j] {
				t.Errorf("case %d: uncovered(%d, %d, %v) = %v, want %v", i, c.lo, c.hi, c.covered, got, c.want)
				break
			}
		}
	}
}

// Resuming from a partial checkpoint runs only the uncovered ranges
// and produces an aggregate byte-identical to the uninterrupted run
// — the acceptance criterion of the checkpoint layer.
func TestCheckpointResumeMatchesUninterrupted(t *testing.T) {
	b := checkpointBatch(t)
	want, err := RunReduced(t.Context(), b, Checkpoint{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantAgg, _ := json.Marshal(want.Aggregate(b))

	// Build the crash survivor: exact prior state for a scattered
	// subset of trials, derived from the reference outcomes.
	out, err := RunOutcomes(t.Context(), b)
	if err != nil {
		t.Fatal(err)
	}
	prior := NewReducer()
	for _, span := range []TrialSpan{{Lo: 0, Hi: 50}, {Lo: 70, Hi: 170}, {Lo: 230, Hi: 240}} {
		for i := span.Lo; i < span.Hi; i++ {
			prior.Add(i, out[i])
		}
		prior.AddSpan(span.Lo, span.Hi)
	}
	path := filepath.Join(t.TempDir(), "resume.ckpt")
	if err := WriteCheckpointFile(path, b, prior); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadCheckpointFile(path, b)
	if err != nil {
		t.Fatal(err)
	}

	journal := filepath.Join(t.TempDir(), "journal.ckpt")
	r, err := RunReduced(t.Context(), b, Checkpoint{Path: journal, Every: 32}, loaded)
	if err != nil {
		t.Fatal(err)
	}
	gotAgg, _ := json.Marshal(r.Aggregate(b))
	if string(gotAgg) != string(wantAgg) {
		t.Errorf("resumed aggregate differs from uninterrupted run:\ngot:  %s\nwant: %s", gotAgg, wantAgg)
	}
	// The final flush leaves a journal that resumes to a no-op: its
	// coverage is complete and its state aggregates identically.
	final, err := ReadCheckpointFile(journal, b)
	if err != nil {
		t.Fatal(err)
	}
	if spans := final.Spans(); len(spans) != 1 || spans[0] != (TrialSpan{Lo: 0, Hi: b.Trials}) {
		t.Errorf("final journal coverage %v, want [{0 %d}]", spans, b.Trials)
	}
	finalAgg, _ := json.Marshal(final.Aggregate(b))
	if string(finalAgg) != string(wantAgg) {
		t.Errorf("final journal aggregate differs:\ngot:  %s\nwant: %s", finalAgg, wantAgg)
	}
	if rerun, err := RunReduced(t.Context(), b, Checkpoint{Path: journal}, final); err != nil {
		t.Fatal(err)
	} else if blob, _ := json.Marshal(rerun.Aggregate(b)); string(blob) != string(wantAgg) {
		t.Errorf("no-op resume changed the aggregate:\ngot:  %s\nwant: %s", blob, wantAgg)
	}
}

// frameJournal wraps a raw payload stream in the journal wire format
// with valid frame and stream CRCs.
func frameJournal(magic string, payload []byte) []byte {
	var buf bytes.Buffer
	cw := &ckptWriter{w: &buf, crc: crc32.New(ckptCRC)}
	cw.wire([]byte(magic))
	cw.buf = append(cw.buf, payload...)
	cw.end()
	return buf.Bytes()
}

// FuzzReadCheckpoint feeds the journal reader arbitrary bytes. No
// input may panic, and an input the reader accepts must survive a
// WriteCheckpoint → ReadCheckpoint round trip with its aggregate
// unchanged. Each input is read against both seed batches twice: as a
// raw wire, and as a payload stream (after a version-selector byte)
// framed with valid CRCs, so mutations reach the payload decoder
// instead of stopping at a checksum. Seeds: journals of a
// scenario-free batch (v1 wire) and a scenario batch (v2 wire), their
// truncations and bit flips, their payloads, and a payload whose value
// table claims 2^62 entries it does not carry.
func FuzzReadCheckpoint(f *testing.F) {
	g, sa, sb := testGraph(f)
	batches := []Batch{{
		Graph: g, StartA: sa, StartB: sb,
		Algorithm: "sweep", Delta: g.MinDegree(),
		Trials: 64, Seed: 17, MaxRounds: 1 << 16,
		Faults: &FaultPlan{Seed: 9, PPanic: 0.05, PBuildErr: 0.05},
	}, {
		Graph: g, Algorithm: "walkpair",
		Trials: 32, Seed: 5, MaxRounds: 1 << 14,
		Scenario: &sim.Scenario{
			Starts:        []graph.Vertex{0, 7, 19},
			WakeDelays:    []int64{0, 0, 16},
			MeetFirstPair: true,
		},
	}}
	for version, b := range batches {
		r, err := RunReduced(context.Background(), b, Checkpoint{}, nil)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteCheckpoint(&buf, b, r); err != nil {
			f.Fatal(err)
		}
		wire := buf.Bytes()
		f.Add(wire)
		for _, cut := range []int{9, len(wire) / 2, len(wire) - 1} {
			f.Add(wire[:cut])
		}
		for _, at := range []int{8, len(wire) / 2, len(wire) - 2} {
			flipped := bytes.Clone(wire)
			flipped[at] ^= 0x10
			f.Add(flipped)
		}
		cr, err := newCkptReader(bytes.NewReader(wire))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte{byte(version)}, cr.payload...))

		// An empty reducer's payload ends in its seven zero counts;
		// keep the first three and claim a 2^62-entry rounds table.
		buf.Reset()
		if err := WriteCheckpoint(&buf, b, NewReducer()); err != nil {
			f.Fatal(err)
		}
		if cr, err = newCkptReader(&buf); err != nil {
			f.Fatal(err)
		}
		huge := append([]byte{byte(version)}, cr.payload[:len(cr.payload)-4]...)
		f.Add(binary.AppendUvarint(huge, 1<<62))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		wires := [][]byte{data}
		if len(data) > 0 {
			magic := ckptMagic
			if data[0]&1 == 1 {
				magic = ckptMagicV2
			}
			wires = append(wires, frameJournal(magic, data[1:]))
		}
		for _, wire := range wires {
			for _, b := range batches {
				r, err := ReadCheckpoint(bytes.NewReader(wire), b)
				if err != nil {
					continue
				}
				var again bytes.Buffer
				if err := WriteCheckpoint(&again, b, r); err != nil {
					t.Fatal(err)
				}
				r2, err := ReadCheckpoint(&again, b)
				if err != nil {
					t.Fatalf("re-encoded journal rejected: %v", err)
				}
				want, err := json.Marshal(r.Aggregate(b))
				if err != nil {
					t.Fatal(err)
				}
				got, err := json.Marshal(r2.Aggregate(b))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("aggregate changed across a rewrite:\ngot:  %s\nwant: %s", got, want)
				}
			}
		}
	})
}
