package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fnr"
	"fnr/internal/engine"
	"fnr/internal/graphcache"
	"fnr/internal/job"
)

// postSpec submits a spec and returns the decoded response and status
// code.
func postSpec(t *testing.T, url string, spec job.Spec) (statusResponse, int, http.Header) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/batches", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statusResponse
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode, resp.Header
}

// getStatus fetches one batch's status.
func getStatus(t *testing.T, url, id string) statusResponse {
	t.Helper()
	resp, err := http.Get(url + "/v1/batches/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET status = %d", resp.StatusCode)
	}
	var st statusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// pollUntil polls the batch until its state is one of want (fatal on
// a different terminal state or timeout).
func pollUntil(t *testing.T, url, id string, want ...string) statusResponse {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		st := getStatus(t, url, id)
		for _, w := range want {
			if st.State == w {
				return st
			}
		}
		switch st.State {
		case stateDone, stateFailed, stateCancelled:
			t.Fatalf("batch %s reached terminal state %q (error %q) while waiting for %v", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch %s stuck in %q waiting for %v", id, st.State, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// cancelBatch issues the DELETE.
func cancelBatch(t *testing.T, url, id string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url+"/v1/batches/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status = %d", resp.StatusCode)
	}
}

// inProcessAggregate runs the spec through the public CLI path —
// fnr.RunBatch on the spec's own batch — and marshals the aggregate:
// the bytes the server must reproduce exactly.
func inProcessAggregate(t *testing.T, spec job.Spec) []byte {
	t.Helper()
	m, err := spec.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Batch(m, job.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := fnr.RunBatch(t.Context(), b)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(agg)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// assertSpecHash fails unless the served spec_hash is the in-process
// hash of the normalized spec — the daemon's cache and dedup key.
func assertSpecHash(t *testing.T, st statusResponse, spec job.Spec) {
	t.Helper()
	want, err := spec.Normalize().Hash()
	if err != nil {
		t.Fatal(err)
	}
	if st.SpecHash != want {
		t.Fatalf("served spec_hash = %s, want %s", st.SpecHash, want)
	}
}

// TestSubmitPollAggregateByteIdentical is the acceptance pin: a batch
// submitted over HTTP returns aggregate JSON byte-identical to the
// same job.Spec run in-process via fnr.RunBatch, and a second
// request for the same workload hash hits the graph cache (build
// count stays 1).
func TestSubmitPollAggregateByteIdentical(t *testing.T) {
	cache := graphcache.New(0)
	srv := New(Config{Cache: cache})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain(context.Background())

	spec := job.Spec{
		Algorithm: "whiteboard",
		Workload:  &job.Workload{Kind: "planted", N: 256, D: 32, Seed: 5},
		Trials:    60,
		Seed:      5,
	}
	st, code, _ := postSpec(t, ts.URL, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	final := pollUntil(t, ts.URL, st.ID, stateDone)
	want := inProcessAggregate(t, spec)
	if string(final.Aggregate) != string(want) {
		t.Fatalf("HTTP aggregate differs from in-process fnr.RunBatch:\n%s\n%s", final.Aggregate, want)
	}
	assertSpecHash(t, final, spec)

	// Second submission of the same workload hash: different trials
	// and algorithm, same graph — served from cache, built once.
	spec2 := job.Spec{
		Algorithm: "sweep",
		Workload:  &job.Workload{Kind: "planted", N: 256, D: 32, Seed: 5},
		Trials:    30,
		Seed:      9,
	}
	if spec2.WorkloadKey() != spec.WorkloadKey() {
		t.Fatal("test bug: workload keys should match")
	}
	st2, code, _ := postSpec(t, ts.URL, spec2)
	if code != http.StatusAccepted {
		t.Fatalf("second submit status = %d", code)
	}
	pollUntil(t, ts.URL, st2.ID, stateDone)
	if cs := cache.Stats(); cs.Builds != 1 || cs.Hits < 1 {
		t.Fatalf("cache stats after second request = %+v, want 1 build and ≥ 1 hit", cs)
	}

	// GraphRef resolution: reference the resident workload by key.
	ref := job.Spec{Algorithm: "sweep", GraphRef: spec.WorkloadKey(), Trials: 10, Seed: 2}
	st3, code, _ := postSpec(t, ts.URL, ref)
	if code != http.StatusAccepted {
		t.Fatalf("graph_ref submit status = %d", code)
	}
	if fin := pollUntil(t, ts.URL, st3.ID, stateDone); fin.Error != "" {
		t.Fatalf("graph_ref job failed: %s", fin.Error)
	}
	if cs := cache.Stats(); cs.Builds != 1 {
		t.Fatalf("graph_ref resolution rebuilt the graph: %+v", cs)
	}
}

// TestCancelMidBatchReturnsPartialSpans: DELETE on a running batch
// yields state "cancelled" with a partial aggregate carrying
// trial_spans for exactly the covered prefix.
func TestCancelMidBatchReturnsPartialSpans(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain(context.Background())

	const trials = 200_000_000 // far more than can finish before the cancel
	spec := job.Spec{
		Algorithm: "sweep",
		Workload:  &job.Workload{Kind: "planted", N: 64, D: 8, Seed: 3},
		Trials:    trials,
		Seed:      7,
	}
	st, code, _ := postSpec(t, ts.URL, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	pollUntil(t, ts.URL, st.ID, stateRunning)
	// Let some chunks land so the partial reducer has coverage.
	time.Sleep(300 * time.Millisecond)
	cancelBatch(t, ts.URL, st.ID)
	final := pollUntil(t, ts.URL, st.ID, stateCancelled)

	var agg struct {
		Trials int               `json:"trials"`
		Spans  []json.RawMessage `json:"trial_spans"`
	}
	if err := json.Unmarshal(final.Aggregate, &agg); err != nil {
		t.Fatalf("cancelled batch aggregate: %v\n%s", err, final.Aggregate)
	}
	if agg.Trials <= 0 || agg.Trials >= trials {
		t.Fatalf("cancelled batch covered %d trials, want a non-empty strict prefix of %d", agg.Trials, trials)
	}
	if len(agg.Spans) == 0 {
		t.Fatalf("cancelled batch aggregate has no trial_spans:\n%s", final.Aggregate)
	}
}

// TestCancelResubmitResumeByteIdentical is the crash-recovery
// acceptance path over HTTP: cancel a checkpointed batch mid-run,
// resubmit the same spec with Resume pointing at the journal, and the
// finished aggregate is byte-identical to the uninterrupted
// in-process run (resume re-ran only the uncovered trial_spans).
func TestCancelResubmitResumeByteIdentical(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain(context.Background())

	ckpt := filepath.Join(t.TempDir(), "batch.ckpt")
	spec := job.Spec{
		Algorithm:       "sweep",
		Workload:        &job.Workload{Kind: "planted", N: 64, D: 8, Seed: 3},
		Trials:          4_000_000,
		Seed:            13,
		Checkpoint:      ckpt,
		CheckpointEvery: 100_000,
	}
	st, code, _ := postSpec(t, ts.URL, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	// Cancel as soon as the journal exists — the same trigger the CI
	// kill -9 cycle uses, long before the batch can finish.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if fi, err := os.Stat(ckpt); err == nil && fi.Size() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("checkpoint journal never appeared")
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancelBatch(t, ts.URL, st.ID)
	partial := pollUntil(t, ts.URL, st.ID, stateCancelled)
	if !strings.Contains(string(partial.Aggregate), "trial_spans") {
		t.Fatalf("cancelled checkpointed batch lost its span metadata:\n%s", partial.Aggregate)
	}
	if partial.SpecHash != st.SpecHash {
		t.Fatal("spec hash changed across poll")
	}

	resumed := spec
	resumed.Resume = ckpt
	st2, code, _ := postSpec(t, ts.URL, resumed)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit status = %d", code)
	}
	if st2.SpecHash != st.SpecHash {
		t.Fatal("checkpoint policy leaked into the spec hash: resubmission should hash identically")
	}
	final := pollUntil(t, ts.URL, st2.ID, stateDone)

	plain := spec
	plain.Checkpoint, plain.CheckpointEvery = "", 0
	want := inProcessAggregate(t, plain)
	if string(final.Aggregate) != string(want) {
		t.Fatalf("resumed aggregate differs from the uninterrupted in-process run:\n%s\n%s", final.Aggregate, want)
	}
	if strings.Contains(string(final.Aggregate), "trial_spans") {
		t.Fatal("complete resumed run should not carry trial_spans")
	}
}

// TestBackpressure429 fills the pool and the admission queue with
// jobs held open by a test run hook, then requires the next submit to
// bounce with 429 + Retry-After.
func TestBackpressure429(t *testing.T) {
	srv := New(Config{Jobs: 1, QueueDepth: 1, RetryAfter: 3 * time.Second})
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	srv.run = func(ctx context.Context, js *jobState) (*job.Result, error) {
		started <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
		}
		return srv.execute(ctx, js)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain(context.Background())
	defer close(release)

	spec := func(seed uint64) job.Spec {
		return job.Spec{
			Algorithm: "sweep",
			Workload:  &job.Workload{Kind: "planted", N: 64, D: 8, Seed: 3},
			Trials:    10,
			Seed:      seed,
		}
	}
	// First job occupies the single worker …
	if _, code, _ := postSpec(t, ts.URL, spec(1)); code != http.StatusAccepted {
		t.Fatalf("first submit status = %d", code)
	}
	<-started
	// … second fills the queue …
	if _, code, _ := postSpec(t, ts.URL, spec(2)); code != http.StatusAccepted {
		t.Fatalf("second submit status = %d", code)
	}
	// … third must bounce.
	_, code, hdr := postSpec(t, ts.URL, spec(3))
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow submit status = %d, want 429", code)
	}
	if ra := hdr.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", ra)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if !strings.Contains(buf.String(), "fnrd_batches_rejected_total 1") {
		t.Fatalf("metrics missing the rejection:\n%s", buf.String())
	}
}

// TestDrainJournalsInFlight: Drain cancels a running checkpointed
// batch, its journal survives with real coverage, and post-drain the
// server refuses work.
func TestDrainJournalsInFlight(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ckpt := filepath.Join(t.TempDir(), "drain.ckpt")
	spec := job.Spec{
		Algorithm:       "sweep",
		Workload:        &job.Workload{Kind: "planted", N: 64, D: 8, Seed: 3},
		Trials:          200_000_000,
		Seed:            4,
		Checkpoint:      ckpt,
		CheckpointEvery: 100_000,
	}
	st, code, _ := postSpec(t, ts.URL, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	pollUntil(t, ts.URL, st.ID, stateRunning)
	time.Sleep(200 * time.Millisecond)

	dctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := getStatus(t, ts.URL, st.ID); got.State != stateCancelled {
		t.Fatalf("post-drain state = %q, want cancelled", got.State)
	}

	// The journal is a valid checkpoint for this batch with coverage.
	m, err := spec.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Batch(m, job.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := engine.ReadCheckpointFile(ckpt, b)
	if err != nil {
		t.Fatalf("journal unreadable after drain: %v", err)
	}
	if len(r.Spans()) == 0 {
		t.Fatal("drained journal covers nothing")
	}

	// Draining servers refuse new work and report unhealthy.
	if _, code, _ := postSpec(t, ts.URL, spec); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit status = %d, want 503", code)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain healthz = %d, want 503", resp.StatusCode)
	}
}

// TestSubmitValidation: malformed and invalid specs bounce with 400.
func TestSubmitValidation(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain(context.Background())

	for name, body := range map[string]string{
		"garbage":       "{not json",
		"unknown-field": `{"algorithm":"sweep","workload":{"kind":"planted","n":64,"d":8},"trials":5,"surprise":1}`,
		"no-workload":   `{"algorithm":"sweep","trials":5}`,
		"bad-algorithm": `{"algorithm":"nope","workload":{"kind":"planted","n":64,"d":8},"trials":5}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/batches", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/batches/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id status = %d, want 404", resp.StatusCode)
	}
}

// TestSubmitBodyTooLarge: a request body past maxSpecBytes is refused
// with 413 and the usual error JSON, even when it is a valid spec
// padded with JSON whitespace, and the daemon serves a normal spec
// afterwards.
func TestSubmitBodyTooLarge(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain(context.Background())

	spec := job.Spec{
		Algorithm: "sweep",
		Workload:  &job.Workload{Kind: "planted", N: 64, D: 8, Seed: 3},
		Trials:    5,
		Seed:      4,
	}
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	padded := append([]byte("{"+strings.Repeat(" ", maxSpecBytes)), body[1:]...)
	resp, err := http.Post(ts.URL+"/v1/batches", "application/json", bytes.NewReader(padded))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("%d-byte submit status = %d, want 413", len(padded), resp.StatusCode)
	}
	var er errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || er.Error == "" {
		t.Fatalf("413 body: error %q, decode err %v", er.Error, err)
	}

	st, code, _ := postSpec(t, ts.URL, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit after the oversize body: status = %d", code)
	}
	if fin := pollUntil(t, ts.URL, st.ID, stateDone); fin.Error != "" {
		t.Fatalf("spec after the oversize body failed: %s", fin.Error)
	}
}

// TestScenarioSubmitByteIdentical: a k-agent delayed-wakeup scenario
// spec is a first-class daemon submission — the HTTP aggregate is
// byte-identical to the same spec run in-process, it echoes the
// resolved scenario (derived starts included), and a scenario a
// pairwise algorithm cannot serve bounces with 400 at submit time,
// before any queue slot is spent.
func TestScenarioSubmitByteIdentical(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain(context.Background())

	spec := job.Spec{
		Algorithm:  "walkpair",
		Workload:   &job.Workload{Kind: "planted", N: 256, D: 16, Seed: 5},
		Trials:     40,
		Seed:       5,
		MaxRounds:  1 << 16,
		Agents:     3,
		WakeDelays: []int64{0, 0, 128},
		Meet:       "firstpair",
	}
	st, code, _ := postSpec(t, ts.URL, spec)
	if code != http.StatusAccepted {
		t.Fatalf("scenario submit status = %d", code)
	}
	final := pollUntil(t, ts.URL, st.ID, stateDone)
	want := inProcessAggregate(t, spec)
	if string(final.Aggregate) != string(want) {
		t.Fatalf("HTTP scenario aggregate differs from the in-process run:\n%s\n%s", final.Aggregate, want)
	}
	assertSpecHash(t, final, spec)
	for _, frag := range []string{`"scenario":{"agents":3`, `"wake_delays":[0,0,128]`, `"meet":"firstpair"`} {
		if !strings.Contains(string(final.Aggregate), frag) {
			t.Errorf("scenario aggregate missing %s:\n%s", frag, final.Aggregate)
		}
	}

	// The two-agent strategies cannot serve k>2; validation rejects the
	// submission outright.
	bad := spec
	bad.Algorithm = "whiteboard"
	body, err := json.Marshal(bad)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/batches", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("k=3 whiteboard submit status = %d, want 400", resp.StatusCode)
	}
	var er errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(er.Error, "does not support 3 agents") {
		t.Fatalf("rejection error = %q, want a two-agent-strategy message", er.Error)
	}
}

// TestMetricsSchema pins the exposition names the README documents.
func TestMetricsSchema(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain(context.Background())

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"fnrd_batches_submitted_total", "fnrd_batches_rejected_total",
		"fnrd_batches_completed_total", "fnrd_batches_failed_total",
		"fnrd_batches_cancelled_total", "fnrd_trials_completed_total",
		"fnrd_batches_inflight", "fnrd_queue_depth", "fnrd_queue_capacity",
		"fnrd_draining", "fnrd_graphcache_hits_total",
		"fnrd_graphcache_misses_total", "fnrd_graphcache_builds_total",
		"fnrd_graphcache_evictions_total", "fnrd_graphcache_entries",
		"fnrd_graphcache_bytes", "fnrd_graphcache_max_bytes",
	} {
		if !strings.Contains(buf.String(), "\n"+name+" ") && !strings.Contains(buf.String(), name+" ") {
			t.Errorf("metrics output missing %s", name)
		}
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics Content-Type = %q", ct)
	}
}

// TestFinishedJobsBounded submits past maxFinishedJobs through the
// run-hook seam: a finished job's context is released, the oldest
// finished ids answer 404, the list stays bounded, and a job still
// running when the cap is passed is never forgotten.
func TestFinishedJobsBounded(t *testing.T) {
	srv := New(Config{Jobs: 2})
	defer srv.Drain(context.Background())
	started, release := make(chan struct{}), make(chan struct{})
	srv.run = func(ctx context.Context, js *jobState) (*job.Result, error) {
		if js.spec.Seed == 0 {
			close(started)
			select { // the long job holds one worker throughout
			case <-release:
			case <-ctx.Done(): // Drain, on a failed check
			}
		}
		return nil, nil
	}
	submit := func(seed uint64) string {
		body, err := json.Marshal(job.Spec{
			Algorithm: "sweep",
			Workload:  &job.Workload{Kind: "planted", N: 64, D: 8, Seed: 3},
			Trials:    1,
			Seed:      seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batches", bytes.NewReader(body)))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", seed, rec.Code)
		}
		var st statusResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		return st.ID
	}
	status := func(id string) (int, statusResponse) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/batches/"+id, nil))
		var st statusResponse
		json.Unmarshal(rec.Body.Bytes(), &st)
		return rec.Code, st
	}
	wait := func(id string) {
		srv.mu.Lock()
		done := srv.jobs[id].done
		srv.mu.Unlock()
		<-done
	}

	long := submit(0)
	<-started
	const extra = 5
	ids := make([]string, maxFinishedJobs+extra)
	for i := range ids {
		ids[i] = submit(uint64(i + 1))
		wait(ids[i])
	}
	srv.mu.Lock()
	released := srv.jobs[ids[len(ids)-1]].ctx.Err() != nil
	srv.mu.Unlock()
	if !released {
		t.Fatal("a finished job's context is still live under the daemon's base context")
	}
	for _, id := range ids[:extra] {
		if code, _ := status(id); code != http.StatusNotFound {
			t.Fatalf("GET of forgotten job %s = %d, want 404", id, code)
		}
	}
	if code, st := status(ids[extra]); code != http.StatusOK || st.State != stateDone {
		t.Fatalf("GET of oldest remembered job = %d %q, want 200 done", code, st.State)
	}
	if code, st := status(long); code != http.StatusOK || st.State != stateRunning {
		t.Fatalf("GET of running job = %d %q, want 200 running", code, st.State)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/batches", nil))
	var list struct {
		Batches []struct{ ID, State string }
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Batches) != maxFinishedJobs+1 || list.Batches[0].ID != long || list.Batches[1].ID != ids[extra] {
		t.Fatalf("list holds %d jobs starting %v, want the running job then the %d newest finished",
			len(list.Batches), list.Batches[:2], maxFinishedJobs)
	}

	close(release)
	wait(long)
	if code, _ := status(long); code != http.StatusOK {
		t.Fatalf("GET of the just-finished job = %d, want 200", code)
	}
	if code, _ := status(ids[extra]); code != http.StatusNotFound {
		t.Fatalf("GET of the job pushed out by the long job's finish = %d, want 404", code)
	}
	srv.mu.Lock()
	remembered := len(srv.jobs)
	srv.mu.Unlock()
	if remembered != maxFinishedJobs {
		t.Fatalf("daemon remembers %d jobs, want %d", remembered, maxFinishedJobs)
	}
}
