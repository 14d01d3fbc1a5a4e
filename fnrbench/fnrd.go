package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"fnr/internal/job"
)

// fnrdMix is the served path: two closed-loop clients against a real
// fnrd subprocess on loopback. Nine of ten specs are warm (a
// whiteboard batch on one of four resident workloads); one is cold (a
// workload not resident, so the cache misses, builds, and evicts an
// older cold graph).
type fnrdMix struct {
	seed   uint64
	bin    string
	d      *daemon
	client *http.Client

	// coldOps counts cold jobs submitted to the current daemon.
	coldOps atomic.Int64
	// resident holds the warm workloads materialized in-process for
	// the re-checks; inProcessMs their job.RunBuilt times, for
	// server.overhead_ms.
	resident    map[int]job.Materialized
	inProcessMs []float64
}

// The daemon's configuration: two concurrent jobs of one engine worker
// each fit the two-core host; the cache holds the four warm graphs
// (about 15 MB each) beside at most two cold ones (about 4 MB each).
var fnrdArgs = []string{"-jobs", "2", "-job-workers", "1", "-cache-mb", "64"}

const (
	warmGraphs   = 4
	fnrdTrials   = 32
	pollInterval = 2 * time.Millisecond
)

// spec returns op i's spec and whether it is cold. In every block of
// ten ops the last is cold, on a workload of its own; the warm ops
// cycle over the four resident workloads, each with its own spec seed.
func (f *fnrdMix) spec(i int) (job.Spec, bool) {
	if i%10 == 9 {
		w := job.Workload{Kind: "planted", N: 2048, D: 64, Seed: derive(f.seed, "fnrd-cold", i/10)}
		return job.Spec{Algorithm: "whiteboard", Workload: &w, Trials: fnrdTrials, Seed: derive(f.seed, "fnrd-cold-spec", i/10)}, true
	}
	k := i - i/10 // warm ops before op i
	w := f.warmWorkload(k % warmGraphs)
	return job.Spec{Algorithm: "whiteboard", Workload: &w, Trials: fnrdTrials, Seed: derive(f.seed, "fnrd-warm-spec", k)}, false
}

func (f *fnrdMix) warmWorkload(j int) job.Workload {
	return job.Workload{Kind: "planted", N: 4096, D: 128, Seed: derive(f.seed, "fnrd-warm", j)}
}

// setup starts a fresh daemon, replacing the previous set-up round's.
// The warm-up ops then build the four warm graphs.
func (f *fnrdMix) setup(ctx context.Context) error {
	f.close()
	if f.client == nil {
		f.client = &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
			Timeout:   60 * time.Second,
		}
	}
	// The free port is picked before fnrd binds it; if another
	// process takes it first, fnrd exits and a new port is tried.
	var err error
	for range 3 {
		if f.d, err = startDaemon(ctx, f.bin, f.client); err == nil {
			break
		}
	}
	if err != nil {
		return err
	}
	f.coldOps.Store(0)
	return nil
}

func (f *fnrdMix) close() {
	if f.d != nil {
		f.d.stop()
		f.d = nil
	}
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
}

func (f *fnrdMix) clients() int   { return 2 }
func (f *fnrdMix) warmups() int   { return 8 }
func (f *fnrdMix) digestOps() int { return 20 }
func (f *fnrdMix) rechecks() int  { return 30 }

func (f *fnrdMix) peakRSSMB() (float64, error) { return peakRSSMB(strconv.Itoa(f.d.cmd.Process.Pid)) }

// status is the daemon's job wire form.
type status struct {
	ID        string          `json:"id"`
	State     string          `json:"state"`
	Error     string          `json:"error"`
	Aggregate json.RawMessage `json:"aggregate"`
}

// op submits op i's spec and polls it until it ends.
func (f *fnrdMix) op(ctx context.Context, i int, o opTrace) opResult {
	spec, cold := f.spec(i)
	r := opResult{class: "warm"}
	if cold {
		r.class = "cold"
		f.coldOps.Add(1)
	}
	body, err := json.Marshal(spec)
	if err != nil {
		r.err = err
		return r
	}
	t0 := time.Now()
	s := o.begin("http.submit")
	var st status
	code, err := f.call(ctx, http.MethodPost, "/v1/batches", body, &st)
	o.end(s)
	switch {
	case err != nil:
		r.err = err
		return r
	case code == http.StatusTooManyRequests:
		r.err = errors.New("fnrd: submission rejected with 429")
		return r
	case code != http.StatusAccepted:
		r.err = fmt.Errorf("fnrd: submit returned %d: %s", code, st.Error)
		return r
	}
	r.queueWait = -1
	for {
		time.Sleep(pollInterval)
		s := o.begin("http.poll")
		code, err := f.call(ctx, http.MethodGet, "/v1/batches/"+st.ID, nil, &st)
		o.end(s)
		r.polls++
		if err != nil {
			r.err = err
			return r
		}
		if code != http.StatusOK {
			r.err = fmt.Errorf("fnrd: status returned %d", code)
			return r
		}
		if st.State != "queued" && r.queueWait < 0 {
			r.queueWait = time.Since(t0)
		}
		if st.State == "queued" || st.State == "running" {
			continue
		}
		o.tr.rename(s, "http.fetch")
		if st.State != "done" {
			r.err = fmt.Errorf("fnrd: job %s ended %s: %s", st.ID, st.State, st.Error)
			return r
		}
		r.out = st.Aggregate
		return r
	}
}

// call does one request and decodes the JSON reply into v.
func (f *fnrdMix) call(ctx context.Context, method, path string, body []byte, v any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, f.d.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return resp.StatusCode, fmt.Errorf("fnrd: %s %s: %w", method, path, err)
	}
	return resp.StatusCode, nil
}

// metrics scrapes the daemon's Prometheus counters.
func (f *fnrdMix) metrics(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.d.url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// reference runs op i's spec in-process through job.RunBuilt: the
// served aggregate must be byte-equal to it.
func (f *fnrdMix) reference(ctx context.Context, i int) ([]byte, error) {
	spec, cold := f.spec(i)
	var m job.Materialized
	if cold {
		var err error
		if m, err = spec.Workload.Materialize(); err != nil {
			return nil, err
		}
	} else {
		j := (i - i/10) % warmGraphs
		if f.resident == nil {
			f.resident = make(map[int]job.Materialized)
		}
		var ok bool
		if m, ok = f.resident[j]; !ok {
			var err error
			if m, err = spec.Workload.Materialize(); err != nil {
				return nil, err
			}
			f.resident[j] = m
		}
	}
	t0 := time.Now()
	out, _, err := runSpec(ctx, spec, m, opTrace{})
	if !cold {
		f.inProcessMs = append(f.inProcessMs, ms(time.Since(t0)))
	}
	return out, err
}

// check requires no submission to have been rejected and the cache to
// have built exactly the four warm graphs plus one graph per cold op:
// a warm graph evicted and rebuilt would show as an extra build.
func (f *fnrdMix) check(ctx context.Context, w *window) []error {
	m, err := f.metrics(ctx)
	if err != nil {
		return []error{err}
	}
	w.server = m
	var errs []error
	if r := m["fnrd_batches_rejected_total"]; r != 0 {
		errs = append(errs, fmt.Errorf("fnrd-mix: %v submissions rejected with 429", r))
	}
	if b, want := m["fnrd_graphcache_builds_total"], float64(warmGraphs+f.coldOps.Load()); b != want {
		errs = append(errs, fmt.Errorf("fnrd-mix: graph cache built %v graphs, want %v (4 warm + one per cold op)", b, want))
	}
	return errs
}

// daemon is a running fnrd subprocess.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{}
}

// startDaemon starts fnrd on a free loopback port and waits until it
// answers /healthz.
func startDaemon(ctx context.Context, bin string, client *http.Client) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(bin, append([]string{"-addr", addr}, fnrdArgs...)...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	// The daemon must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, url: "http://" + addr, done: make(chan struct{})}
	go func() { cmd.Wait(); close(d.done) }()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return nil, fmt.Errorf("fnrd exited during start-up: %v", cmd.ProcessState)
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		resp, err := client.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
	}
	d.stop()
	return nil, errors.New("fnrd did not become healthy within 20s")
}

// stop terminates the daemon and waits for it to exit.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}
