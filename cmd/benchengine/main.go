// Command benchengine emits BENCH_engine.json: the fixed reference
// batch (whiteboard vs sweep, 200 trials each on PlantedMinDegree
// (1024, 181), batch seed 7) that gives later changes a perf
// trajectory to compare against. Each batch is timed at the
// configured worker count and rerun at another one, and the two
// aggregates are checked byte-identical before anything is written;
// the strategy's native stepper setup is timed against the same
// strategy hosted on coroutines. The aggregates are deterministic;
// only the *_elapsed_ms fields vary between machines and runs.
//
// In addition to the reference batch the report carries a large
// scaling preset (default PlantedMinDegree(65536, 256), 20 whiteboard
// trials) — the datapoint that tracks whether graph generation and the
// trial engine keep scaling past laptop n. Graph generation is timed
// for both presets (gen_elapsed_ms), as is one serialize→parse round
// trip per format (io.read_elapsed_ms for binary v2 against
// io.read_text_elapsed_ms for v1 text). A third preset ("mega",
// default 10M sweep trials on PlantedMinDegree(64, 8)) exercises the
// engine's bounded-memory reducer: the report records the live heap
// after the batch as a witness.
//
// A "scenarios" preset reruns the reference workload as explicit
// job-layer scenarios: a two-agent whiteboard sweep over wake delays
// τ ∈ -wake-delays (agent b sleeps τ rounds before its first step)
// plus one k-agent walkpair entry with the first-pair meeting
// predicate. Each entry records the exact canonical spec JSON and its
// hash, so a smoke check can resubmit the identical spec to a running
// fnrd and diff the aggregates byte for byte; the τ=0 entry doubles
// as a live legacy-parity gate (its hash and aggregate must match the
// scenario-free spec exactly).
//
// A fourth preset ("huge", default PlantedMinDegree(2²⁰, 64))
// exercises the 64-bit graph core end to end: bulk Hamiltonian-cycle
// generation (timed against the sequential prefix it replaced), a v3
// chunked write to a real file, a streaming read back with a
// transient-memory witness (io.read_peak_transient_mb, gated under
// 2×V3MaxChunkLen by -assert-huge-io), and one sweep lane batch.
//
// Usage:
//
//	benchengine              # writes BENCH_engine.json in the cwd
//	benchengine -o out.json
//	benchengine -trials 500 -parallel 8
//	benchengine -large=false             # skip the n=65536 preset
//	benchengine -cpuprofile cpu.pprof    # profile the timed runs
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"fnr"
	"fnr/internal/atomicio"
)

type batchReport struct {
	Aggregate *fnr.Aggregate `json:"aggregate"`
	// ElapsedMS is wall-clock for the batch at the configured worker
	// count (machine-dependent; excluded from determinism claims, like
	// every elapsed field here).
	ElapsedMS int64 `json:"elapsed_ms"`
	// TrialsPerSec is Trials / ElapsedMS at the configured workers.
	TrialsPerSec float64 `json:"trials_per_sec"`
	// NativeSetupElapsedMS and CoroutineSetupElapsedMS time the pure
	// per-trial stepper setup cost over setup-cycles build+Init+Finish
	// cycles: the registered native state machines against the same
	// strategy's Programs hosted on iter.Pull coroutines
	// (ProgramStepper) — the setup a batch pays per trial for a
	// strategy registered with Build alone. Machine-dependent, like
	// every elapsed field.
	NativeSetupElapsedMS    int64 `json:"native_setup_elapsed_ms"`
	CoroutineSetupElapsedMS int64 `json:"coroutine_setup_elapsed_ms"`
	// SetupSpeedup is CoroutineSetupElapsedMS / NativeSetupElapsedMS.
	SetupSpeedup float64 `json:"setup_speedup"`
}

// largeReport is the n=65536 scaling preset: generation and
// serialization costs plus one whiteboard batch.
type largeReport struct {
	N       int    `json:"n"`
	D       int    `json:"d"`
	Trials  int    `json:"trials"`
	Seed    uint64 `json:"seed"`
	Workers int    `json:"workers"`
	// GenElapsedMS is wall-clock for generating the preset's graph.
	GenElapsedMS int64 `json:"gen_elapsed_ms"`
	// Serialization round-trip costs (see ioReport).
	IO      *ioReport              `json:"io,omitempty"`
	Batches map[string]batchReport `json:"batches"`
}

// ioReport times one serialize→parse round trip per format on the
// preset's graph, in memory. ReadElapsedMS (binary v2) against
// ReadTextElapsedMS is the datapoint tracking the binary format's
// parse-cost win; the byte counts track its size win.
type ioReport struct {
	// ReadElapsedMS is wall-clock for graph.Read on the v2 binary
	// serialization.
	ReadElapsedMS int64 `json:"read_elapsed_ms"`
	// ReadTextElapsedMS is wall-clock for graph.Read on the v1 text
	// serialization.
	ReadTextElapsedMS int64 `json:"read_text_elapsed_ms"`
	// ReadSpeedup is ReadTextElapsedMS / ReadElapsedMS.
	ReadSpeedup float64 `json:"read_speedup"`
	// WriteElapsedMS / WriteTextElapsedMS time the two writers.
	WriteElapsedMS     int64 `json:"write_elapsed_ms"`
	WriteTextElapsedMS int64 `json:"write_text_elapsed_ms"`
	// Bytes / TextBytes are the serialized sizes.
	Bytes     int `json:"bytes"`
	TextBytes int `json:"text_bytes"`
}

// hugeReport is the million-vertex preset (default n=2²⁰, d=64): it
// exercises the 64-bit graph core end to end — parallel planted
// generation, a v3 chunked write to disk, a streaming read back, and
// one lane batch of the ∆-sweep baseline (d « √n is outside the
// whiteboard algorithm's δ ≥ √n regime). The prefix timings compare
// the sequential Hamiltonian-cycle edge loop against the bulk
// AddCycle fill that PlantedMinDegree now uses.
type hugeReport struct {
	N       int    `json:"n"`
	D       int    `json:"d"`
	Trials  int    `json:"trials"`
	Seed    uint64 `json:"seed"`
	Workers int    `json:"workers"`
	// GenElapsedMS is wall-clock for generating the preset's graph
	// (bulk cycle prefix + deficit loop + CSR build).
	GenElapsedMS int64 `json:"gen_elapsed_ms"`
	// PrefixSerialElapsedMS times the pre-bulk generation prefix (n
	// sequential MustAddEdge calls over a Hamiltonian cycle);
	// PrefixBulkElapsedMS the byte-equivalent AddCycle fill;
	// PrefixSpeedup their ratio.
	PrefixSerialElapsedMS int64         `json:"prefix_serial_elapsed_ms"`
	PrefixBulkElapsedMS   int64         `json:"prefix_bulk_elapsed_ms"`
	PrefixSpeedup         float64       `json:"prefix_speedup"`
	IO                    *hugeIOReport `json:"io"`
	// Batch fields: one lane-path sweep batch at the configured
	// worker count.
	Algorithm    string         `json:"algorithm"`
	ElapsedMS    int64          `json:"elapsed_ms"`
	TrialsPerSec float64        `json:"trials_per_sec"`
	Aggregate    *fnr.Aggregate `json:"aggregate"`
}

// hugeIOReport times the huge preset's serialize→parse round trip
// through the v3 chunked format on a real file (the only format able
// to carry graphs past 2³¹ arcs), with a transient-memory witness.
type hugeIOReport struct {
	// WriteElapsedMS / ReadElapsedMS are wall-clock for the v3 write
	// and the streaming read back; Bytes is the serialized size.
	WriteElapsedMS int64 `json:"write_elapsed_ms"`
	ReadElapsedMS  int64 `json:"read_elapsed_ms"`
	Bytes          int64 `json:"bytes"`
	// ReadPeakTransientMB is the decode's allocation total beyond the
	// returned graph's own footprint (runtime.ReadMemStats TotalAlloc
	// delta minus the computed CSR array bytes) — the witness that
	// streaming decode memory is O(chunk), not O(file). The CI gate
	// requires it under 2× the frame cap (2 × V3MaxChunkLen = 8 MiB).
	ReadPeakTransientMB float64 `json:"read_peak_transient_mb"`
}

// scenarioReport is the delayed-wakeup preset: the reference workload
// rerun as explicit scenarios through the job layer (the exact path an
// fnrd submission takes). The sweep holds the two-agent whiteboard
// instance fixed and delays agent b's wake-up by τ rounds for each τ
// in -wake-delays — the datapoint tracking how asynchronous start
// times shift the meeting-round distribution. The team entry runs a
// k-agent walkpair scenario (last agent delayed, first-pair meeting
// predicate), exercising the generalized k-agent loop end to end. The
// τ=0 sweep entry is a live legacy-parity witness: its spec must hash
// identically to the scenario-free spec and its aggregate must be
// byte-identical to running that spec, or the run aborts.
type scenarioReport struct {
	N       int    `json:"n"`
	D       int    `json:"d"`
	Trials  int    `json:"trials"`
	Seed    uint64 `json:"seed"`
	Workers int    `json:"workers"`
	// Sweep is the two-agent wake-delay sweep, one entry per τ.
	Sweep []scenarioEntry `json:"sweep"`
	// Team is the k-agent entry (nil when -scenario-agents is 2).
	Team *scenarioEntry `json:"team,omitempty"`
}

// scenarioEntry is one scenario datapoint. Spec carries the exact
// canonical job JSON, so a smoke check can resubmit the identical
// spec to a running fnrd and diff the returned aggregate against
// Aggregate byte for byte.
type scenarioEntry struct {
	Algorithm string `json:"algorithm"`
	Agents    int    `json:"agents"`
	// WakeDelay is the delayed agent's τ (the last agent; everyone
	// else wakes at round 0).
	WakeDelay int64 `json:"wake_delay"`
	// Spec is the canonical job JSON of the entry; SpecHash its
	// content hash (the daemon's cache key for this scenario).
	Spec     json.RawMessage `json:"spec"`
	SpecHash string          `json:"spec_hash"`
	// ElapsedMS is wall-clock for the batch at the configured worker
	// count (machine-dependent, like every elapsed field).
	ElapsedMS int64          `json:"elapsed_ms"`
	Aggregate *fnr.Aggregate `json:"aggregate"`
}

// megaReport is the streaming-aggregation preset: a 10M-trial batch
// on a tiny instance, proving the engine sustains trial counts whose
// outcome slice alone would cost hundreds of MB — with bounded
// engine-owned memory.
type megaReport struct {
	N         int    `json:"n"`
	D         int    `json:"d"`
	Trials    int    `json:"trials"`
	Seed      uint64 `json:"seed"`
	Workers   int    `json:"workers"`
	Algorithm string `json:"algorithm"`
	// ElapsedMS is wall-clock for the streaming batch at the
	// configured worker count; TrialsPerSec the resulting throughput.
	ElapsedMS    int64   `json:"elapsed_ms"`
	TrialsPerSec float64 `json:"trials_per_sec"`
	// HeapAllocMB is the live heap right after the batch returns — a
	// bounded-memory witness (an O(trials) outcome slice would put
	// 32 B × trials here).
	HeapAllocMB float64        `json:"heap_alloc_mb"`
	Aggregate   *fnr.Aggregate `json:"aggregate"`
}

type report struct {
	N          int    `json:"n"`
	D          int    `json:"d"`
	Trials     int    `json:"trials"`
	Seed       uint64 `json:"seed"`
	Workers    int    `json:"workers"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// GenElapsedMS is wall-clock for generating the reference graph.
	GenElapsedMS int64                  `json:"gen_elapsed_ms"`
	IO           *ioReport              `json:"io,omitempty"`
	Batches      map[string]batchReport `json:"batches"`
	Scenarios    *scenarioReport        `json:"scenarios,omitempty"`
	Large        *largeReport           `json:"large,omitempty"`
	Mega         *megaReport            `json:"mega,omitempty"`
	Huge         *hugeReport            `json:"huge,omitempty"`
}

// timeReads serializes g in both formats and times parsing each back,
// GC-fencing the timed sections so one measurement's garbage does not
// bill the next.
func timeReads(g *fnr.Graph) *ioReport {
	rep := &ioReport{}
	var bin, text bytes.Buffer
	start := time.Now()
	if _, err := g.WriteBinary(&bin); err != nil {
		log.Fatal(err)
	}
	rep.WriteElapsedMS = max(time.Since(start).Milliseconds(), 1)
	start = time.Now()
	if _, err := g.WriteTo(&text); err != nil {
		log.Fatal(err)
	}
	rep.WriteTextElapsedMS = max(time.Since(start).Milliseconds(), 1)
	rep.Bytes, rep.TextBytes = bin.Len(), text.Len()
	readOne := func(data []byte) int64 {
		runtime.GC()
		start := time.Now()
		h, err := fnr.ReadGraph(bytes.NewReader(data))
		if err != nil {
			log.Fatal(err)
		}
		elapsed := max(time.Since(start).Milliseconds(), 1)
		if !h.Equal(g) {
			log.Fatal("serialization round trip changed the graph")
		}
		return elapsed
	}
	// Min of three interleaved reads: a single GC cycle or a noisy-
	// neighbor stall on a shared host would otherwise bill one format
	// multiple seconds the other did not pay.
	for i := 0; i < 3; i++ {
		binMS, textMS := readOne(bin.Bytes()), readOne(text.Bytes())
		if i == 0 || binMS < rep.ReadElapsedMS {
			rep.ReadElapsedMS = binMS
		}
		if i == 0 || textMS < rep.ReadTextElapsedMS {
			rep.ReadTextElapsedMS = textMS
		}
	}
	rep.ReadSpeedup = float64(rep.ReadTextElapsedMS) / float64(rep.ReadElapsedMS)
	return rep
}

// timeSetups measures the pure per-trial stepper setup-and-teardown
// cost of one strategy, cycles times over: build the pair, Init each
// agent with a run-equivalent StepContext, Finish each. The native
// loop builds the registered state machines; the coroutine loop hosts
// the same strategy's Programs on ProgramStepper, whose Init creates
// (and Finish unwinds) an iter.Pull coroutine per agent — what the
// engine pays per trial for a strategy registered with Build alone.
// GC-fenced; ms floored at 1.
func timeSetups(name string, g *fnr.Graph, delta, cycles int, seed uint64) (nativeMS, coroMS int64) {
	a, err := fnr.ParseAlgorithm(name)
	if err != nil {
		log.Fatal(err)
	}
	var info fnr.AlgorithmInfo
	for _, ai := range fnr.Algorithms() {
		if ai.Name == name {
			info = ai
		}
	}
	opt := fnr.Options{Delta: delta}
	initAndFinish := func(sa, sb fnr.Stepper) {
		for i, st := range []fnr.Stepper{sa, sb} {
			ctx := fnr.StepContext{
				Name:        fnr.AgentName(i),
				NPrime:      g.NPrime(),
				NeighborIDs: info.NeedsNeighborIDs,
				Whiteboards: info.NeedsWhiteboards,
				Rand:        rand.New(rand.NewPCG(seed, uint64(0xA+i))),
			}
			st.Init(&ctx)
			fnr.FinishStepper(st)
		}
	}
	runtime.GC()
	start := time.Now()
	for i := 0; i < cycles; i++ {
		sa, sb, err := fnr.BuildSteppers(a, opt)
		if err != nil {
			log.Fatal(err)
		}
		initAndFinish(sa, sb)
	}
	nativeMS = max(time.Since(start).Milliseconds(), 1)
	runtime.GC()
	start = time.Now()
	for i := 0; i < cycles; i++ {
		pa, pb, err := fnr.BuildPrograms(a, opt)
		if err != nil {
			log.Fatal(err)
		}
		initAndFinish(fnr.ProgramStepper(pa), fnr.ProgramStepper(pb))
	}
	coroMS = max(time.Since(start).Milliseconds(), 1)
	return nativeMS, coroMS
}

// timedRun executes the batch and returns its aggregate with
// wall-clock milliseconds (minimum 1, so speedup ratios stay finite).
func timedRun(b fnr.Batch) (*fnr.Aggregate, int64) {
	start := time.Now()
	agg, err := fnr.RunBatch(b)
	if err != nil {
		log.Fatalf("%s: %v", b.Algorithm, err)
	}
	return agg, max(time.Since(start).Milliseconds(), 1)
}

// benchBatch times the batch at its worker count, reruns it at another
// worker count to check the aggregate does not depend on it, and times
// the strategy's native stepper setup against its coroutine-hosted
// Programs.
func benchBatch(batch fnr.Batch, setupCycles int) batchReport {
	agg, elapsed := timedRun(batch)
	other := batch
	other.Workers = 1
	if batch.Workers == 1 {
		other.Workers = 4
	}
	if otherAgg, _ := timedRun(other); !otherAgg.Equal(agg) {
		log.Fatalf("%s: aggregates differ across worker counts — engine determinism broken", batch.Algorithm)
	}
	nativeSetup, coroSetup := timeSetups(batch.Algorithm, batch.Graph, batch.Delta, setupCycles, batch.Seed)
	return batchReport{
		Aggregate:               agg,
		ElapsedMS:               elapsed,
		TrialsPerSec:            float64(batch.Trials) / (float64(elapsed) / 1000),
		NativeSetupElapsedMS:    nativeSetup,
		CoroutineSetupElapsedMS: coroSetup,
		SetupSpeedup:            float64(coroSetup) / float64(nativeSetup),
	}
}

// genWorkload reproduces the fixed workload derivation — the planted
// graph from PCG(seed, 0xbe7c4) plus an adjacent start pair from the
// same stream — through the shared job layer, so a benchmark run, an
// `experiments -tail` run, and an fnrd submission with the same
// (n, d, seed) all exercise the same instance. Returns the graph, the
// pair, and the generation time.
func genWorkload(n, d int, seed uint64) (*fnr.Graph, fnr.Vertex, fnr.Vertex, int64) {
	start := time.Now()
	m, err := fnr.MaterializeWorkload(fnr.JobWorkload{Kind: "planted", N: n, D: d, Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	genMS := max(time.Since(start).Milliseconds(), 1)
	return m.Graph, m.StartA, m.StartB, genMS
}

// runScenarioSpec validates and executes one scenario spec through the
// shared job layer on the already-materialized reference workload, and
// packs the result into a scenarioEntry.
func runScenarioSpec(spec fnr.JobSpec, built fnr.JobMaterialized, workers int, delay int64) scenarioEntry {
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		log.Fatalf("scenario %s: %v", spec.Algorithm, err)
	}
	canon, err := spec.CanonicalJSON()
	if err != nil {
		log.Fatalf("scenario %s: %v", spec.Algorithm, err)
	}
	hash, err := spec.Hash()
	if err != nil {
		log.Fatalf("scenario %s: %v", spec.Algorithm, err)
	}
	start := time.Now()
	res, err := fnr.RunJobBuilt(context.Background(), spec, built, fnr.JobExecOptions{Workers: workers})
	if err != nil {
		log.Fatalf("scenario %s: %v", spec.Algorithm, err)
	}
	agents := spec.Agents
	if agents == 0 {
		agents = 2
	}
	return scenarioEntry{
		Algorithm: spec.Algorithm,
		Agents:    agents,
		WakeDelay: delay,
		Spec:      json.RawMessage(canon),
		SpecHash:  hash,
		ElapsedMS: max(time.Since(start).Milliseconds(), 1),
		Aggregate: res.Aggregate(),
	}
}

// runScenarios executes the delayed-wakeup preset (see scenarioReport)
// on the reference workload: the whiteboard wake-delay sweep plus one
// k-agent walkpair entry.
func runScenarios(g *fnr.Graph, sa, sb fnr.Vertex, n, d, trials int, seed uint64, workers, agents int, delays []int64) *scenarioReport {
	srep := &scenarioReport{
		N: n, D: d, Trials: trials, Seed: seed, Workers: workers,
	}
	built := fnr.JobMaterialized{Graph: g, StartA: sa, StartB: sb}
	base := fnr.JobSpec{
		Algorithm: "whiteboard",
		Workload:  &fnr.JobWorkload{Kind: "planted", N: n, D: d, Seed: seed},
		Trials:    trials,
		Seed:      seed,
	}
	for _, tau := range delays {
		spec := base
		spec.WakeDelays = []int64{0, tau}
		entry := runScenarioSpec(spec, built, workers, tau)
		if tau == 0 {
			// Legacy-parity witness: a τ=0 scenario is the legacy
			// two-agent batch, so it must share the plain spec's hash
			// and aggregate exactly.
			plain := runScenarioSpec(base, built, workers, 0)
			if entry.SpecHash != plain.SpecHash {
				log.Fatalf("scenario τ=0: spec hash %s differs from the scenario-free spec's %s", entry.SpecHash, plain.SpecHash)
			}
			if !entry.Aggregate.Equal(plain.Aggregate) {
				log.Fatal("scenario τ=0: aggregate differs from the scenario-free run — legacy parity broken")
			}
		}
		srep.Sweep = append(srep.Sweep, entry)
	}
	if agents > 2 {
		// k walkers, last one delayed by the sweep's largest τ, first
		// pair to collide ends the trial (an all-gather of independent
		// walkers on the reference graph would rarely finish inside
		// any sane round bound).
		wd := make([]int64, agents)
		if len(delays) > 0 {
			wd[agents-1] = delays[len(delays)-1]
		}
		spec := base
		spec.Algorithm = "walkpair"
		spec.Agents = agents
		spec.WakeDelays = wd
		spec.Meet = "firstpair"
		entry := runScenarioSpec(spec, built, workers, wd[agents-1])
		srep.Team = &entry
	}
	return srep
}

// runHuge executes the million-vertex preset (see hugeReport):
// prefix timings, full generation, a v3 file round trip with the
// transient-memory witness, and one sweep lane batch. assertIO turns
// the transient witness into a hard gate (the CI smoke job's check
// that streaming decode memory stays O(chunk)).
func runHuge(n, d, trials int, seed uint64, workers, shardIndex, shardCount int, assertIO bool) *hugeReport {
	hrep := &hugeReport{
		N: n, D: d, Trials: trials, Seed: seed,
		Workers: workers, Algorithm: "sweep",
	}

	// Prefix timings: the generation's Hamiltonian-cycle permutation
	// laid down two ways — n sequential MustAddEdge calls against one
	// bulk AddCycle — on builders grown to the generator's row
	// capacity, exactly as PlantedMinDegree grows them.
	perm := rand.New(rand.NewPCG(seed, 0xbe7c4)).Perm(n)
	rowCap := min(d+2, n-1)
	sb := fnr.NewBuilder(n)
	sb.Grow(rowCap)
	runtime.GC()
	start := time.Now()
	for i, v := range perm {
		sb.MustAddEdge(fnr.Vertex(v), fnr.Vertex(perm[(i+1)%n]))
	}
	hrep.PrefixSerialElapsedMS = max(time.Since(start).Milliseconds(), 1)
	sb = nil
	bb := fnr.NewBuilder(n)
	bb.Grow(rowCap)
	runtime.GC()
	start = time.Now()
	if err := bb.AddCycle(perm); err != nil {
		log.Fatal(err)
	}
	hrep.PrefixBulkElapsedMS = max(time.Since(start).Milliseconds(), 1)
	hrep.PrefixSpeedup = float64(hrep.PrefixSerialElapsedMS) / float64(hrep.PrefixBulkElapsedMS)
	bb, perm = nil, nil

	hg, hsa, hsb, genMS := genWorkload(n, d, seed)
	hrep.GenElapsedMS = genMS

	// v3 round trip through a real file: the sized streaming-read
	// path, with a TotalAlloc witness that transient decode memory is
	// O(chunk). The witness is everything the read allocated beyond
	// the returned graph's own arrays.
	hio := &hugeIOReport{}
	hrep.IO = hio
	f, err := os.CreateTemp("", "fnr-huge-*.fnrb3")
	if err != nil {
		log.Fatal(err)
	}
	defer os.Remove(f.Name())
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)
	start = time.Now()
	wrote, err := hg.WriteBinaryV3(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		log.Fatal(err)
	}
	hio.WriteElapsedMS = max(time.Since(start).Milliseconds(), 1)
	hio.Bytes = wrote
	if _, err := f.Seek(0, 0); err != nil {
		log.Fatal(err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start = time.Now()
	h, err := fnr.ReadGraph(f)
	if err != nil {
		log.Fatal(err)
	}
	hio.ReadElapsedMS = max(time.Since(start).Milliseconds(), 1)
	runtime.ReadMemStats(&after)
	transient := int64(after.TotalAlloc-before.TotalAlloc) - h.FootprintBytes()
	hio.ReadPeakTransientMB = float64(transient) / (1 << 20)
	if !h.Equal(hg) {
		log.Fatal("huge: v3 round trip changed the graph")
	}
	h = nil
	if lim := 2 * int64(fnr.V3MaxChunkLen); assertIO && transient >= lim {
		log.Fatalf("huge: streaming read allocated %.1f MB beyond the graph (budget %d MB) — decode memory is not O(chunk)",
			hio.ReadPeakTransientMB, lim>>20)
	}

	// One sweep lane batch. At d=64 « √n=1024 the whiteboard
	// algorithm is outside its δ ≥ √n regime, so the ∆-sweep baseline
	// is the preset's algorithm; MaxRounds guards against a stuck
	// trial burning the CI timeout.
	batch := fnr.Batch{
		Graph:      hg,
		StartA:     hsa,
		StartB:     hsb,
		Algorithm:  "sweep",
		Delta:      hg.MinDegree(),
		Trials:     trials,
		Seed:       seed,
		Workers:    workers,
		MaxRounds:  1 << 22,
		ShardIndex: shardIndex,
		ShardCount: shardCount,
	}
	agg, elapsed := timedRun(batch)
	hrep.ElapsedMS = elapsed
	hrep.TrialsPerSec = float64(trials) / (float64(elapsed) / 1000)
	hrep.Aggregate = agg
	return hrep
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchengine: ")
	var (
		out         = flag.String("o", "BENCH_engine.json", "output path")
		n           = flag.Int("n", 1024, "graph size")
		d           = flag.Int("d", 181, "planted minimum degree")
		trials      = flag.Int("trials", 200, "trials per batch")
		seed        = flag.Uint64("seed", 7, "batch seed (also the graph seed)")
		parallel    = flag.Int("parallel", 0, "worker count for the timed run (0 = GOMAXPROCS)")
		large       = flag.Bool("large", true, "also run the large scaling preset")
		largeN      = flag.Int("large-n", 65536, "large preset graph size")
		largeD      = flag.Int("large-d", 256, "large preset planted minimum degree")
		largeTrials = flag.Int("large-trials", 20, "large preset trials")
		setupCycles = flag.Int("setup-cycles", 10000, "build+Init+Finish cycles per stepper setup-cost measurement")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile of the timed runs to this file")

		scenarios      = flag.Bool("scenarios", true, "also run the delayed-wakeup scenario preset")
		scenarioAgents = flag.Int("scenario-agents", 3, "agent count for the scenario preset's k-agent entry (2 = skip)")
		scenarioTrials = flag.Int("scenario-trials", 64, "trials per scenario entry")
		wakeDelays     = flag.String("wake-delays", "0,16,256", "comma-separated wake delays τ for the scenario sweep")

		shard           = flag.String("shard", "", "run batch shard i of k, format i/k (trial seeds stay global; merge reducers across shards)")
		mega            = flag.Bool("mega", true, "also run the 10M-trial streaming-aggregation preset")
		megaTrials      = flag.Int("mega-trials", 10_000_000, "streaming preset trials")
		megaN           = flag.Int("mega-n", 64, "streaming preset graph size")
		megaD           = flag.Int("mega-d", 8, "streaming preset planted minimum degree")
		checkpoint      = flag.String("checkpoint", "", "journal the mega preset's progress to this file (atomic rewrite every -checkpoint-every trials)")
		checkpointEvery = flag.Int("checkpoint-every", 0, "trials between mega checkpoint flushes (0 = engine default)")
		resume          = flag.String("resume", "", "resume the mega preset from this checkpoint journal, skipping its covered trials")
		huge            = flag.Bool("huge", true, "also run the million-vertex graph-core preset")
		hugeN           = flag.Int("huge-n", 1<<20, "huge preset graph size")
		hugeD           = flag.Int("huge-d", 64, "huge preset planted minimum degree")
		hugeTrials      = flag.Int("huge-trials", 8, "huge preset sweep trials")
		assertHugeIO    = flag.Bool("assert-huge-io", false, "fail if the huge preset's streaming read allocates ≥ 2×V3MaxChunkLen beyond the graph (CI smoke)")
	)
	flag.Parse()

	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var shardIndex, shardCount int
	if *shard != "" {
		if n, _ := fmt.Sscanf(*shard, "%d/%d", &shardIndex, &shardCount); n != 2 || shardIndex < 0 || shardCount < 1 || shardIndex >= shardCount {
			log.Fatalf("invalid -shard %q: want i/k with 0 ≤ i < k", *shard)
		}
	}
	g, sa, sb, genMS := genWorkload(*n, *d, *seed)
	// Generate the large workload before the CPU profile starts too:
	// the profile covers only the timed engine runs, and at n=65536
	// generation would otherwise dominate every sample.
	var lg *fnr.Graph
	var lsa, lsb fnr.Vertex
	var lGenMS int64
	if *large {
		lg, lsa, lsb, lGenMS = genWorkload(*largeN, *largeD, *seed)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	rep := report{
		N: *n, D: *d, Trials: *trials, Seed: *seed,
		Workers: workers, GOMAXPROCS: runtime.GOMAXPROCS(0),
		GenElapsedMS: genMS,
		IO:           timeReads(g),
		Batches:      map[string]batchReport{},
	}
	for _, name := range []string{"whiteboard", "sweep"} {
		batch := fnr.Batch{
			Graph:      g,
			StartA:     sa,
			StartB:     sb,
			Algorithm:  name,
			Delta:      g.MinDegree(),
			Trials:     *trials,
			Seed:       *seed,
			Workers:    workers,
			ShardIndex: shardIndex,
			ShardCount: shardCount,
		}
		rep.Batches[name] = benchBatch(batch, *setupCycles)
	}

	if *scenarios {
		var delays []int64
		for _, part := range strings.Split(*wakeDelays, ",") {
			tau, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
			if err != nil || tau < 0 {
				log.Fatalf("invalid -wake-delays %q: want comma-separated non-negative integers", *wakeDelays)
			}
			delays = append(delays, tau)
		}
		rep.Scenarios = runScenarios(g, sa, sb, *n, *d, *scenarioTrials, *seed, workers, *scenarioAgents, delays)
	}

	if *large {
		lrep := &largeReport{
			N: *largeN, D: *largeD, Trials: *largeTrials, Seed: *seed,
			Workers: workers, GenElapsedMS: lGenMS,
			IO:      timeReads(lg),
			Batches: map[string]batchReport{},
		}
		for _, name := range []string{"whiteboard"} {
			batch := fnr.Batch{
				Graph:      lg,
				StartA:     lsa,
				StartB:     lsb,
				Algorithm:  name,
				Delta:      lg.MinDegree(),
				Trials:     *largeTrials,
				Seed:       *seed,
				Workers:    workers,
				ShardIndex: shardIndex,
				ShardCount: shardCount,
			}
			lrep.Batches[name] = benchBatch(batch, *setupCycles)
		}
		rep.Large = lrep
	}

	if *mega {
		// One job.Spec covers both modes — plain and crash-safe (the
		// resumed result is byte-identical to an uninterrupted run;
		// reducer merging is partition-insensitive). The workload is
		// materialized before the timer so generation stays outside the
		// throughput measurement.
		mg, msa, msb, _ := genWorkload(*megaN, *megaD, *seed)
		spec := fnr.JobSpec{
			Algorithm:       "sweep",
			Workload:        &fnr.JobWorkload{Kind: "planted", N: *megaN, D: *megaD, Seed: *seed},
			Trials:          *megaTrials,
			Seed:            *seed,
			ShardIndex:      shardIndex,
			ShardCount:      shardCount,
			Checkpoint:      *checkpoint,
			CheckpointEvery: *checkpointEvery,
			Resume:          *resume,
		}.Normalize()
		if err := spec.Validate(); err != nil {
			log.Fatalf("mega sweep: %v", err)
		}
		built := fnr.JobMaterialized{Graph: mg, StartA: msa, StartB: msb}
		runtime.GC()
		start := time.Now()
		res, err := fnr.RunJobBuilt(context.Background(), spec, built, fnr.JobExecOptions{Workers: workers})
		if err != nil {
			log.Fatalf("mega sweep: %v", err)
		}
		agg := res.Aggregate()
		elapsed := max(time.Since(start).Milliseconds(), 1)
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		rep.Mega = &megaReport{
			N: *megaN, D: *megaD, Trials: *megaTrials, Seed: *seed,
			Workers: workers, Algorithm: "sweep",
			ElapsedMS:    elapsed,
			TrialsPerSec: float64(*megaTrials) / (float64(elapsed) / 1000),
			HeapAllocMB:  float64(ms.HeapAlloc) / (1 << 20),
			Aggregate:    agg,
		}
	}

	if *huge {
		rep.Huge = runHuge(*hugeN, *hugeD, *hugeTrials, *seed, workers, shardIndex, shardCount, *assertHugeIO)
	}

	// Atomic write: a benchmark process killed mid-report must leave
	// either the previous BENCH file or the new one, never a torn
	// half-JSON a downstream comparison then half-parses.
	if err := atomicio.WriteFile(*out, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}); err != nil {
		log.Fatal(err)
	}
	log.Printf("gen n=%d d=%d: %dms", *n, *d, rep.GenElapsedMS)
	for _, name := range []string{"whiteboard", "sweep"} {
		b := rep.Batches[name]
		log.Printf("%s: %dms at %d workers (%.0f trials/s)", name, b.ElapsedMS, workers, b.TrialsPerSec)
		log.Printf("%s setup: native %dms vs coroutine %dms per %d cycles (%.1fx)",
			name, b.NativeSetupElapsedMS, b.CoroutineSetupElapsedMS, *setupCycles, b.SetupSpeedup)
	}
	log.Printf("read n=%d: binary %dms (%d bytes) vs text %dms (%d bytes), %.1fx",
		*n, rep.IO.ReadElapsedMS, rep.IO.Bytes, rep.IO.ReadTextElapsedMS, rep.IO.TextBytes, rep.IO.ReadSpeedup)
	if rep.Scenarios != nil {
		for _, e := range rep.Scenarios.Sweep {
			log.Printf("scenario %s τ=%d: %d trials in %dms, mean meeting round %.1f",
				e.Algorithm, e.WakeDelay, rep.Scenarios.Trials, e.ElapsedMS, e.Aggregate.Rounds.Mean)
		}
		if e := rep.Scenarios.Team; e != nil {
			log.Printf("scenario %s k=%d τ=%d (firstpair): %d trials in %dms, mean meeting round %.1f",
				e.Algorithm, e.Agents, e.WakeDelay, rep.Scenarios.Trials, e.ElapsedMS, e.Aggregate.Rounds.Mean)
		}
	}
	if rep.Large != nil {
		log.Printf("large gen n=%d d=%d: %dms", rep.Large.N, rep.Large.D, rep.Large.GenElapsedMS)
		log.Printf("large read: binary %dms (%d bytes) vs text %dms (%d bytes), %.1fx",
			rep.Large.IO.ReadElapsedMS, rep.Large.IO.Bytes, rep.Large.IO.ReadTextElapsedMS, rep.Large.IO.TextBytes, rep.Large.IO.ReadSpeedup)
		for name, b := range rep.Large.Batches {
			log.Printf("large %s: %d trials in %dms at %d workers", name, rep.Large.Trials, b.ElapsedMS, workers)
			log.Printf("large %s setup: native %dms vs coroutine %dms per %d cycles (%.1fx)",
				name, b.NativeSetupElapsedMS, b.CoroutineSetupElapsedMS, *setupCycles, b.SetupSpeedup)
		}
	}
	if rep.Mega != nil {
		log.Printf("mega %s: %d trials on n=%d d=%d in %dms (%.0f trials/s), heap after %.1f MB",
			rep.Mega.Algorithm, rep.Mega.Trials, rep.Mega.N, rep.Mega.D,
			rep.Mega.ElapsedMS, rep.Mega.TrialsPerSec, rep.Mega.HeapAllocMB)
	}
	if rep.Huge != nil {
		h := rep.Huge
		log.Printf("huge gen n=%d d=%d: %dms; cycle prefix serial %dms vs bulk %dms (%.1fx)",
			h.N, h.D, h.GenElapsedMS, h.PrefixSerialElapsedMS, h.PrefixBulkElapsedMS, h.PrefixSpeedup)
		log.Printf("huge v3: write %dms (%d bytes), streaming read %dms, transient %.2f MB beyond the graph",
			h.IO.WriteElapsedMS, h.IO.Bytes, h.IO.ReadElapsedMS, h.IO.ReadPeakTransientMB)
		log.Printf("huge %s: %d trials in %dms (%.0f trials/s)",
			h.Algorithm, h.Trials, h.ElapsedMS, h.TrialsPerSec)
	}
	log.Printf("wrote %s", *out)
}
