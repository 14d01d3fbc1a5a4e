// Command fnrbench is the repository benchmark. It drives the batch
// engine, the graph I/O path and the fnrd daemon through the entry
// points ROADMAP keeps — job.Spec with job.RunBuilt and
// Result.Aggregate, job.Workload.Materialize, graph.WriteBinaryV3,
// graph.Read and Graph.Equal, engine.WriteCheckpoint, and fnrd's HTTP
// API — on one named workload, checks every output, and prints one
// JSON result line.
//
// Usage (from the repository root, after building with run.sh):
//
//	fnrbench --workload paper-batch --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run.
// --trace 1 runs the workload untraced and then traced, reporting the
// tracing overhead, runs the other workloads traced for a short window
// each so that every layer is covered, and reports the per-layer
// metrics derived from the spans; the spans themselves are written to
// --trace-dir. The op definitions and the layer → end-to-end table
// live in design.json.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	// Strategy registrations: specs resolve algorithm names against
	// the registry.
	_ "fnr/internal/algo/paper"
	_ "fnr/internal/baseline"
)

// opResult is what one op produced. out holds the bytes the
// correctness checks compare: aggregate JSON for batch ops, the
// encoding digest and start pair for graph round trips.
type opResult struct {
	class string // "warm" or "cold" on fnrd-mix, "" elsewhere
	out   []byte
	err   error
	lat   time.Duration
	at    time.Time // when the op started

	// A served job's wait for a worker, and the GETs it took.
	queueWait time.Duration
	polls     int
}

// workload is one named benchmark workload. Op i's inputs are a pure
// function of the seed and i, so every run of a workload on one seed
// executes the same op sequence.
type workload interface {
	// setup makes the inputs that stay resident through the run.
	setup(ctx context.Context) error
	op(ctx context.Context, i int, o opTrace) opResult
	// reference recomputes op i's output independently of the
	// window, for the sampled re-checks.
	reference(ctx context.Context, i int) ([]byte, error)
	clients() int
	warmups() int
	// digestOps is how many leading ops the output digest covers;
	// rechecks is how many window ops are recomputed and compared.
	digestOps() int
	rechecks() int
	// check runs the workload's own end-of-window checks.
	check(ctx context.Context, w *window) []error
	peakRSSMB() (float64, error)
	close()
}

var workloadNames = []string{"paper-batch", "trial-flood", "graph-build", "fnrd-mix"}

func newWorkload(name string, seed uint64, fnrdBin string) (workload, error) {
	switch name {
	case "paper-batch":
		return &paperBatch{seed: seed}, nil
	case "trial-flood":
		return &trialFlood{seed: seed}, nil
	case "graph-build":
		return &graphBuild{seed: seed}, nil
	case "fnrd-mix":
		return &fnrdMix{seed: seed, bin: fnrdBin}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// derive maps (seed, stream, i) to an input seed with splitmix64, so
// each input of a run is a pure function of the workload seed.
func derive(seed uint64, stream string, i int) uint64 {
	x := seed
	for _, c := range []byte(stream) {
		x = (x ^ uint64(c)) * 0x100000001b3
	}
	x += uint64(i+1) * 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// window is one stretch of ops and what the checks made of it.
type window struct {
	ops     []opResult // ops[i] is op i
	start   time.Time
	elapsed time.Duration
	steal   uint64
	// Daemon counters before the window and after the checks.
	serverBefore, server map[string]float64

	attempted int
	errs      []error
	digest    string
}

// runOps runs ops on w.clients() closed-loop clients, op indices
// handed out in order, until limit ops have started (limit > 0) or the
// deadline passes.
func runOps(ctx context.Context, w workload, limit int, deadline time.Time, tr *tracer) []opResult {
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
		res  = make(map[int]opResult)
	)
	for range w.clients() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && (limit > 0 || time.Now().Before(deadline)) {
				i := int(next.Add(1) - 1)
				if limit > 0 && i >= limit {
					return
				}
				root := tr.begin("op", -1, i)
				t0 := time.Now()
				r := w.op(ctx, i, opTrace{tr: tr, parent: root, op: i})
				r.lat, r.at = time.Since(t0), t0
				tr.end(root)
				mu.Lock()
				res[i] = r
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ops := make([]opResult, len(res))
	for i, r := range res {
		ops[i] = r
	}
	return ops
}

// setupRounds runs the set-up rounds — resident inputs plus the
// warm-up ops — and returns each round's wall time. The warm-up ops'
// results of the last round are returned for the correctness checks.
func setupRounds(ctx context.Context, w workload, rounds int) ([]float64, []opResult, error) {
	var secs []float64
	var warm []opResult
	for r := range rounds {
		if r > 0 {
			w.close()
			runtime.GC()
		}
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		warm = runOps(ctx, w, w.warmups(), time.Time{}, nil)
		secs = append(secs, time.Since(t0).Seconds())
	}
	return secs, warm, ctx.Err()
}

// runWindow times ops for d on the workload's resident inputs, then
// verifies them.
func runWindow(ctx context.Context, w workload, d time.Duration, tr *tracer, warm []opResult) *window {
	var before map[string]float64
	if f, ok := w.(*fnrdMix); ok {
		before, _ = f.metrics(ctx)
	}
	steal0 := stealTicks()
	start := time.Now()
	ops := runOps(ctx, w, 0, start.Add(d), tr)
	win := &window{ops: ops, start: start, elapsed: time.Since(start), steal: stealTicks() - steal0, serverBefore: before}
	verify(ctx, w, win, warm)
	return win
}

// verify counts every failed op of the window, requires each warm-up
// op to reproduce the window op with the same index and a spread
// sample of window ops to match an independent recomputation, digests
// the leading ops' outputs (running them untimed if the window ended
// first), and runs the workload's own checks.
func verify(ctx context.Context, w workload, win *window, warm []opResult) {
	fail := func(format string, args ...any) { win.errs = append(win.errs, fmt.Errorf(format, args...)) }
	for i, r := range win.ops {
		win.attempted++
		if r.err != nil {
			fail("op %d: %w", i, r.err)
		}
	}
	for i, r := range warm {
		win.attempted++
		switch {
		case r.err != nil:
			fail("warm-up op %d: %w", i, r.err)
		case i < len(win.ops) && win.ops[i].err == nil && !bytes.Equal(r.out, win.ops[i].out):
			fail("warm-up op %d: output differs from the timed op %d", i, i)
		}
	}
	n, m := len(win.ops), min(w.rechecks(), len(win.ops))
	for k := range m {
		i := k * n / m
		win.attempted++
		want, err := w.reference(ctx, i)
		switch {
		case err != nil:
			fail("re-check of op %d: %w", i, err)
		case win.ops[i].err == nil && !bytes.Equal(win.ops[i].out, want):
			fail("op %d: output differs from its recomputation:\n  window    %s\n  recompute %s", i, win.ops[i].out, want)
		}
	}
	digest, recomputed, errs := leadingDigest(ctx, w, win.ops)
	win.digest = digest
	win.attempted += recomputed
	win.errs = append(win.errs, errs...)
	for _, err := range w.check(ctx, win) {
		win.attempted++
		win.errs = append(win.errs, err)
	}
}

// leadingDigest digests the outputs of ops 0..digestOps()-1, taking
// each from ops when the window ran it and recomputing it otherwise.
func leadingDigest(ctx context.Context, w workload, ops []opResult) (digest string, recomputed int, errs []error) {
	h := sha256.New()
	for i := range w.digestOps() {
		var out []byte
		if i < len(ops) {
			out = ops[i].out
		} else {
			recomputed++
			var err error
			if out, err = w.reference(ctx, i); err != nil {
				errs = append(errs, fmt.Errorf("op %d: %w", i, err))
			}
		}
		h.Write(strconv.AppendInt(nil, int64(len(out)), 10))
		h.Write(out)
	}
	return hex.EncodeToString(h.Sum(nil)), recomputed, errs
}

// recordDigests prints, as the JSON of digests.json, every workload's
// leading-ops digest for seeds lo..hi, computed untimed.
func recordDigests(ctx context.Context, lo, hi uint64, fnrdBin string) error {
	table := make(map[string]map[string]string)
	for _, name := range workloadNames {
		table[name] = make(map[string]string)
		for seed := lo; seed <= hi; seed++ {
			w, err := newWorkload(name, seed, fnrdBin)
			if err != nil {
				return err
			}
			err = w.setup(ctx)
			if err == nil {
				var errs []error
				table[name][strconv.FormatUint(seed, 10)], _, errs = leadingDigest(ctx, w, nil)
				err = errors.Join(errs...)
			}
			w.close()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", " ")
	return enc.Encode(table)
}

// recordedDigests pins the digest of the leading ops' outputs of each
// workload for a range of seeds: {"workload": {"seed": "sha256"}}.
//
//go:embed digests.json
var recordedDigests []byte

// checkDigest compares win's digest with the recorded one, if this
// seed has one.
func checkDigest(name string, seed uint64, win *window) (recorded bool) {
	var table map[string]map[string]string
	if err := json.Unmarshal(recordedDigests, &table); err != nil {
		win.errs = append(win.errs, fmt.Errorf("digests.json: %w", err))
		return false
	}
	want, ok := table[name][strconv.FormatUint(seed, 10)]
	if ok && want != win.digest {
		win.errs = append(win.errs, fmt.Errorf("%s seed %d: output digest %s, recorded %s", name, seed, win.digest, want))
	}
	return ok
}

// mainClass reports whether an op counts toward op_p50_ms/op_p90_ms:
// every op, except fnrd-mix's cold jobs, which have their own
// per-layer median.
func mainClass(r opResult) bool { return r.class != "cold" }

func latenciesMs(ops []opResult, keep func(opResult) bool) []float64 {
	var xs []float64
	for _, r := range ops {
		if r.err == nil && keep(r) {
			xs = append(xs, float64(r.lat)/1e6)
		}
	}
	return xs
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and its unit; BENCHMARK.json lists the same.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them from an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
}

// endToEndMetrics derives the end-to-end metrics of an untraced
// window. The window is cut into up to five equal time slices of at
// least 120 ops each; throughput and percentiles are computed per
// slice and the median slice is reported, so a burst of hypervisor
// steal that slows one slice does not move the result.
func endToEndMetrics(setups []float64, rssMB float64, win *window) map[string]metric {
	k := max(1, min(5, len(latenciesMs(win.ops, mainClass))/120))
	slice := win.elapsed / time.Duration(k)
	var rate, p50, p90 []float64
	for j := range k {
		lo, hi := win.start.Add(slice*time.Duration(j)), win.start.Add(slice*time.Duration(j+1))
		in := func(r opResult) bool { return !r.at.Before(lo) && r.at.Before(hi) }
		n := 0
		for _, r := range win.ops {
			if in(r) {
				n++
			}
		}
		lat := latenciesMs(win.ops, func(r opResult) bool { return in(r) && mainClass(r) })
		rate = append(rate, float64(n)/slice.Seconds())
		p50 = append(p50, quantile(lat, 0.5))
		p90 = append(p90, quantile(lat, 0.9))
	}
	return withUnits(endToEnd, map[string]float64{
		"setup_s":     median(setups),
		"peak_rss_mb": rssMB,
		"ops_per_s":   median(rate),
		"op_p50_ms":   median(p50),
		"op_p90_ms":   median(p90),
	})
}

// withUnits pairs each listed metric with its value; a listed metric
// without a value reads NaN, which the result check rejects.
func withUnits(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			v = math.NaN()
		}
		out[d.name] = metric{v, d.unit}
	}
	return out
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is printed before the result: host diagnostics, the digest,
// and the first errors, so a noisy or failing run can be explained.
type report struct {
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Trace    int      `json:"trace"`
	Host     hostInfo `json:"host"`
	Ops      int      `json:"ops"`
	Samples  int      `json:"op_samples"` // ops behind op_p50_ms and op_p90_ms
	Digest   string   `json:"digest"`
	Recorded bool     `json:"digest_recorded"`
	Errors   []string `json:"errors,omitempty"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run: paper-batch, trial-flood, graph-build or fnrd-mix")
	seed := flag.Uint64("seed", 1, "workload seed; every input derives from it")
	seconds := flag.Float64("seconds", 20, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	fnrdBin := flag.String("fnrd", ".bench_build/fnrd", "fnrd binary for fnrd-mix")
	traceDir := flag.String("trace-dir", ".bench_build/traces", "directory the traced run writes its spans to")
	record := flag.String("record-digests", "", "print the output digests of every workload for seeds `lo-hi` in the form of digests.json, and exit")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *record != "" {
		var lo, hi uint64
		if _, err := fmt.Sscanf(*record, "%d-%d", &lo, &hi); err != nil {
			fmt.Fprintln(os.Stderr, "fnrbench: -record-digests wants lo-hi:", err)
			return 2
		}
		if err := recordDigests(ctx, lo, hi, *fnrdBin); err != nil {
			fmt.Fprintln(os.Stderr, "fnrbench:", err)
			return 1
		}
		return 0
	}

	w, err := newWorkload(*name, *seed, *fnrdBin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fnrbench:", err)
		return 2
	}
	defer w.close()
	dur := time.Duration(*seconds * float64(time.Second))

	var (
		res     = result{Metrics: make(map[string]metric)}
		wins    []*window
		primary *window
	)
	if *trace == 0 {
		setups, warm, err := setupRounds(ctx, w, 5)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fnrbench:", err)
			return 1
		}
		primary = runWindow(ctx, w, dur, nil, warm)
		rss, err := w.peakRSSMB()
		if err != nil {
			primary.errs = append(primary.errs, err)
		}
		res.Metrics = endToEndMetrics(setups, rss, primary)
		wins = append(wins, primary)
	} else {
		wins, err = tracedRun(ctx, *name, *seed, *fnrdBin, w, dur, *traceDir, res.Metrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fnrbench:", err)
			return 1
		}
		primary = wins[0]
	}
	w.close()

	rep := report{Workload: *name, Seed: *seed, Trace: *trace, Digest: primary.digest}
	rep.Samples = len(latenciesMs(primary.ops, mainClass))
	if *trace == 0 && rep.Samples < 100 {
		fmt.Fprintf(os.Stderr, "fnrbench: only %d ops; op_p90_ms has fewer than 10 samples beyond it\n", rep.Samples)
	}
	rep.Recorded = checkDigest(*name, *seed, primary)
	var steal uint64
	for _, win := range wins {
		steal += win.steal
		rep.Ops += len(win.ops)
		res.Attempted += win.attempted
		res.Failed += len(win.errs)
		for _, err := range win.errs {
			fmt.Fprintln(os.Stderr, "fnrbench:", err)
			if len(rep.Errors) < 5 {
				rep.Errors = append(rep.Errors, err.Error())
			}
		}
	}
	rep.Host = newHostInfo(steal)
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "fnrbench: interrupted")
		return 1
	}
	res.Correct = res.Failed == 0
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "fnrbench: metric %s has no value\n", k)
			res.Correct = false
			delete(res.Metrics, k)
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.Encode(rep)
	enc.Encode(res)
	if !res.Correct {
		return 1
	}
	return 0
}

// tracedRun runs the named workload untraced and then traced, each
// for 3/10 of the window, then every other workload traced for 2/15 of
// it, so that every layer is covered. It fills metrics with the
// per-layer values and the tracing overhead, and writes the spans to
// dir. The named workload's windows come first in the returned slice.
func tracedRun(ctx context.Context, name string, seed uint64, fnrdBin string, w workload, d time.Duration, dir string, metrics map[string]metric) ([]*window, error) {
	_, warm, err := setupRounds(ctx, w, 1)
	if err != nil {
		return nil, err
	}
	untraced := runWindow(ctx, w, d*3/10, nil, warm)
	tr := newTracer()
	traced := runWindow(ctx, w, d*3/10, tr, nil)
	wins := []*window{untraced, traced}
	spans := map[string]layerSource{name: {tr, traced, w}}
	for _, other := range workloadNames {
		if other == name {
			continue
		}
		ow, err := newWorkload(other, seed, fnrdBin)
		if err != nil {
			return nil, err
		}
		_, warm, err := setupRounds(ctx, ow, 1)
		if err != nil {
			ow.close()
			return nil, fmt.Errorf("%s: %w", other, err)
		}
		otr := newTracer()
		win := runWindow(ctx, ow, d*2/15, otr, warm)
		ow.close()
		wins = append(wins, win)
		spans[other] = layerSource{otr, win, ow}
	}
	for _, l := range perLayer {
		metrics[l.name] = metric{l.value(spans[l.from]), l.unit}
	}
	u := median(latenciesMs(untraced.ops, mainClass))
	t := median(latenciesMs(traced.ops, mainClass))
	maps.Copy(metrics, withUnits(traceMetrics, map[string]float64{
		"trace.untraced_op_p50_ms": u,
		"trace.traced_op_p50_ms":   t,
		"trace.overhead_pct":       100 * (t - u) / u,
	}))
	for wl, src := range spans {
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d", name, seed), wl+".jsonl")
		if err := src.tr.write(path); err != nil {
			return nil, err
		}
	}
	return wins, nil
}
