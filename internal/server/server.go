// Package server is the HTTP/JSON batch daemon behind cmd/fnrd: it
// accepts job.Specs over POST /v1/batches, runs them on a bounded
// worker pool fed by a fixed-depth admission queue (backpressure is a
// 429 with Retry-After), serves status and aggregates — byte-identical
// to the same spec run in-process through the engine's reduced path —
// resolves workloads through a shared content-addressed graph cache,
// cancels batches via DELETE (the engine's context plumbing returns
// the partial reducer, so a cancelled job still reports its covered
// trial_spans), and drains gracefully on SIGTERM, journalling
// in-flight checkpointed jobs through their final flush.
//
// Endpoints:
//
//	POST   /v1/batches       submit a job.Spec           → 202 + job id
//	GET    /v1/batches       list jobs (id, state)
//	GET    /v1/batches/{id}  status + aggregate when finished
//	DELETE /v1/batches/{id}  cancel (idempotent)
//	GET    /metrics          Prometheus text format
//	GET    /healthz          200 while serving, 503 while draining
//
// The daemon remembers every queued and running job, but only the
// maxFinishedJobs most recently finished ones (done, failed or
// cancelled): past that, the oldest finished job is forgotten, and
// GET or DELETE of its id answers 404 like an id never issued. A
// client collects an aggregate well before a thousand later jobs
// finish, and a long-lived daemon's memory stays flat.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"fnr/internal/graphcache"
	"fnr/internal/job"

	// Strategy registrations: spec validation resolves algorithm
	// names against the registry.
	_ "fnr/internal/algo/paper"
	_ "fnr/internal/baseline"
)

// Config tunes the daemon. The zero value is usable: 2 concurrent
// jobs, a 16-deep admission queue, engine-default per-job workers,
// and a fresh default-budget graph cache.
type Config struct {
	// Jobs is the worker-pool size — how many batches run
	// concurrently (default 2).
	Jobs int
	// QueueDepth bounds the admission queue; a submit finding it full
	// is rejected with 429 + Retry-After (default 16).
	QueueDepth int
	// JobWorkers is the engine worker count per batch (0 =
	// GOMAXPROCS). Parallelism never affects results.
	JobWorkers int
	// RetryAfter is the hint returned with 429 (default 1s).
	RetryAfter time.Duration
	// Cache is the shared graph cache (nil = graphcache.New(0)).
	Cache *graphcache.Cache
}

// state values of a job's lifecycle.
const (
	stateQueued    = "queued"
	stateRunning   = "running"
	stateDone      = "done"
	stateFailed    = "failed"
	stateCancelled = "cancelled"
)

// jobState is one submitted batch. Mutable fields are guarded by the
// server mutex; done closes on reaching a terminal state.
type jobState struct {
	id          string
	spec        job.Spec
	hash        string
	workloadKey string
	ctx         context.Context
	cancel      context.CancelFunc
	done        chan struct{}

	state string
	errs  string
	agg   json.RawMessage
}

// Server implements http.Handler. Construct with New; stop with
// Drain.
type Server struct {
	cfg   Config
	cache *graphcache.Cache
	mux   *http.ServeMux

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup
	queue      chan *jobState

	// run executes one job — overridable in-package so tests can
	// hold the pool busy deterministically.
	run func(ctx context.Context, js *jobState) (*job.Result, error)

	mu       sync.Mutex
	draining bool
	seq      int
	jobs     map[string]*jobState
	order    []string // ids of the remembered jobs, in submission order
	finished []string // ids of the remembered finished jobs, oldest first
	// Counter state for /metrics.
	submitted, rejected, completed, failed, cancelled uint64
	inflight                                          int
	trialsDone                                        uint64
}

// New builds the server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.Jobs <= 0 {
		cfg.Jobs = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.Cache == nil {
		cfg.Cache = graphcache.New(0)
	}
	s := &Server{
		cfg:   cfg,
		cache: cfg.Cache,
		mux:   http.NewServeMux(),
		queue: make(chan *jobState, cfg.QueueDepth),
		jobs:  make(map[string]*jobState),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.run = s.execute
	s.mux.HandleFunc("POST /v1/batches", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/batches", s.handleList)
	s.mux.HandleFunc("GET /v1/batches/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /v1/batches/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	for i := 0; i < cfg.Jobs; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Drain stops the daemon gracefully: no new submissions, every
// running batch's context is cancelled — the engine stops at the next
// chunk boundary and checkpointed jobs flush their journals through
// the final-flush path — queued jobs are marked cancelled, and Drain
// returns when the pool is idle (or ctx expires first).
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if !already {
		s.baseCancel()
	}
	idle := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// worker consumes the admission queue until drain, then empties what
// is left as cancelled.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case js := <-s.queue:
			s.process(js)
		case <-s.baseCtx.Done():
			for {
				select {
				case js := <-s.queue:
					s.process(js)
				default:
					return
				}
			}
		}
	}
}

// process runs one queued job to a terminal state.
func (s *Server) process(js *jobState) {
	s.mu.Lock()
	if js.state != stateQueued {
		// Cancelled while queued; already terminal.
		s.mu.Unlock()
		return
	}
	if js.ctx.Err() != nil {
		js.state = stateCancelled
		js.errs = "server draining"
		s.cancelled++
		s.finishLocked(js)
		s.mu.Unlock()
		return
	}
	js.state = stateRunning
	s.inflight++
	s.mu.Unlock()

	res, err := s.run(js.ctx, js)

	var aggJSON json.RawMessage
	var trials int
	if res != nil {
		agg := res.Aggregate()
		trials = agg.Trials
		if data, mErr := json.Marshal(agg); mErr == nil {
			aggJSON = data
		} else if err == nil {
			err = mErr
		}
	}
	s.mu.Lock()
	s.inflight--
	switch {
	case err == nil:
		js.state = stateDone
		js.agg = aggJSON
		s.completed++
		s.trialsDone += uint64(trials)
	case res != nil && js.ctx.Err() != nil:
		// Cancelled mid-batch: the engine returned the partial
		// reducer, whose aggregate carries the covered trial_spans.
		js.state = stateCancelled
		js.errs = err.Error()
		js.agg = aggJSON
		s.cancelled++
		s.trialsDone += uint64(trials)
	default:
		js.state = stateFailed
		js.errs = err.Error()
		s.failed++
	}
	s.finishLocked(js)
	s.mu.Unlock()
}

// maxFinishedJobs bounds how many finished jobs the daemon remembers
// (see the package doc). Each costs its spec, its aggregate's JSON and
// its map and list entries.
const maxFinishedJobs = 1024

// finishLocked completes js's move to a terminal state: it releases
// js's context, so a finished job no longer hangs off the daemon's
// base context, closes done, and forgets the oldest finished job once
// more than maxFinishedJobs are remembered. Queued and running jobs
// are never forgotten. Callers hold s.mu.
func (s *Server) finishLocked(js *jobState) {
	js.cancel()
	close(js.done)
	s.finished = append(s.finished, js.id)
	if len(s.finished) <= maxFinishedJobs {
		return
	}
	old := s.finished[0]
	s.finished = s.finished[1:]
	delete(s.jobs, old)
	if i := slices.Index(s.order, old); i >= 0 {
		s.order = slices.Delete(s.order, i, i+1)
	}
}

// execute is the production run function: resolve the workload
// through the graph cache (building at most once per workload key,
// however many requests race), then run the spec on the shared graph.
func (s *Server) execute(ctx context.Context, js *jobState) (*job.Result, error) {
	var m job.Materialized
	if js.spec.GraphRef != "" {
		var ok bool
		if m, ok = s.cache.Lookup(js.spec.GraphRef); !ok {
			return nil, fmt.Errorf("server: graph_ref %q is not resident in the graph cache (submit its workload first)", js.spec.GraphRef)
		}
	} else {
		var err error
		if m, err = s.cache.Get(ctx, js.workloadKey, js.spec.Materialize); err != nil {
			return nil, err
		}
	}
	return job.RunBuilt(ctx, js.spec, m, job.ExecOptions{Workers: s.cfg.JobWorkers})
}

// statusResponse is the wire form of a job's state.
type statusResponse struct {
	ID          string `json:"id"`
	State       string `json:"state"`
	SpecHash    string `json:"spec_hash"`
	WorkloadKey string `json:"workload_key,omitempty"`
	Error       string `json:"error,omitempty"`
	// Aggregate is present once the job is done or cancelled; its
	// bytes are exactly json.Marshal of the engine aggregate — the
	// same bytes the CLI path produces for this spec.
	Aggregate json.RawMessage `json:"aggregate,omitempty"`
}

// statusLocked snapshots a job; callers hold s.mu.
func statusLocked(js *jobState) statusResponse {
	return statusResponse{
		ID:          js.id,
		State:       js.state,
		SpecHash:    js.hash,
		WorkloadKey: js.workloadKey,
		Error:       js.errs,
		Aggregate:   js.agg,
	}
}

// writeJSON writes v compactly — deliberately no indentation, so an
// embedded aggregate json.RawMessage passes through byte-identical to
// the engine's own json.Marshal output (re-indenting would reformat
// it).
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

type errorResponse struct {
	Error string `json:"error"`
}

// maxSpecBytes bounds a submission's request body. A real spec is well
// under 1 KB; a larger body is answered 413 after at most this many
// bytes are read.
const maxSpecBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec job.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, code, errorResponse{Error: "decoding spec: " + err.Error()})
		return
	}
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	hash, err := spec.Hash()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server draining"})
		return
	}
	s.seq++
	js := &jobState{
		id:          fmt.Sprintf("%s-%d", hash[:12], s.seq),
		spec:        spec,
		hash:        hash,
		workloadKey: spec.WorkloadKey(),
		state:       stateQueued,
		done:        make(chan struct{}),
	}
	js.ctx, js.cancel = context.WithCancel(s.baseCtx)
	select {
	case s.queue <- js:
		s.jobs[js.id] = js
		s.order = append(s.order, js.id)
		s.submitted++
		resp := statusLocked(js)
		s.mu.Unlock()
		writeJSON(w, http.StatusAccepted, resp)
	default:
		s.rejected++
		s.mu.Unlock()
		w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.RetryAfter/time.Second)))
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: "admission queue full"})
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	type item struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	s.mu.Lock()
	items := make([]item, 0, len(s.order))
	for _, id := range s.order {
		items = append(items, item{ID: id, State: s.jobs[id].state})
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"batches": items})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	js, ok := s.jobs[r.PathValue("id")]
	var resp statusResponse
	if ok {
		resp = statusLocked(js)
	}
	s.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown batch id"})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	js, ok := s.jobs[r.PathValue("id")]
	if !ok {
		s.mu.Unlock()
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown batch id"})
		return
	}
	if js.state == stateQueued {
		// Not yet picked up: terminal immediately; the worker will
		// skip it when it surfaces from the queue.
		js.state = stateCancelled
		js.errs = "cancelled before start"
		s.cancelled++
		s.finishLocked(js)
	}
	js.cancel()
	resp := statusLocked(js)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}
