// Command experiments regenerates the paper-reproduction tables (the
// suite of internal/harness, summarized in README, "Reproduction
// suite"); its output is the record of the results. Trials inside
// every experiment run on the batch engine's worker pool.
//
// Usage:
//
//	experiments                  # full suite, markdown to stdout
//	experiments -run E1,E5       # selected experiments
//	experiments -quick -trials 4 # smaller sweeps
//	experiments -csv out/        # also write one CSV per experiment
//	experiments -json            # machine-readable tables on stdout
//	experiments -parallel 8     # bound trial parallelism
//
// Tail mode runs one long crash-safe batch instead of the table
// suite — the entry point for resolving the Theorem 1–2 tail
// constants with orders-of-magnitude more trials than the tables
// use. It journals progress, resumes after a kill, honors Ctrl-C
// (finishing cleanly with whatever coverage it reached), and can
// inject deterministic faults; the aggregate JSON goes to stdout:
//
//	experiments -tail whiteboard -tail-trials 10000000 \
//	    -checkpoint tail.ckpt            # kill -9 any time
//	experiments -tail whiteboard -tail-trials 10000000 \
//	    -checkpoint tail.ckpt -resume tail.ckpt   # picks up coverage
//	experiments -tail sweep -faults panic:p=1e-4,stall:p=1e-4
//
// Tail batches can be scenarios: -agents k runs a k-agent gathering
// (team-capable algorithms only for k>2), -wake-delay τ delays the
// last agent's wake-up by τ rounds, and -meet firstpair ends each
// trial at the first pairwise meeting instead of the all-k gather:
//
//	experiments -tail walkpair -agents 3 -wake-delay 256 -meet firstpair
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"fnr"
	"fnr/internal/server"
)

// parseShard parses "i/k" into a shard index and count.
func parseShard(s string) (index, count int, err error) {
	if n, _ := fmt.Sscanf(s, "%d/%d", &index, &count); n != 2 || index < 0 || count < 1 || index >= count {
		return 0, 0, fmt.Errorf("invalid -shard %q: want i/k with 0 ≤ i < k", s)
	}
	return index, count, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	var (
		runList  = flag.String("run", "all", "comma-separated experiment IDs, or 'all'")
		quick    = flag.Bool("quick", false, "small sweeps (smoke mode)")
		trials   = flag.Int("trials", 0, "trials per configuration (0 = default)")
		parallel = flag.Int("parallel", 0, "parallel trials (0 = GOMAXPROCS; never affects results)")
		preset   = flag.String("params", "practical", "constant preset: practical|paper")
		shard    = flag.String("shard", "", "run engine-batch shard i of k, format i/k (trial seeds stay global; tables then summarize partial samples)")
		csvDir   = flag.String("csv", "", "directory to write per-experiment CSVs")
		jsonOut  = flag.Bool("json", false, "emit one JSON document with every table instead of markdown")

		tailAlgo        = flag.String("tail", "", "run one crash-safe tail batch of this algorithm instead of the suite (e.g. whiteboard, sweep)")
		tailN           = flag.Int("tail-n", 1<<12, "tail mode: planted workload size")
		tailD           = flag.Int("tail-d", 64, "tail mode: planted minimum degree")
		tailTrials      = flag.Int("tail-trials", 100_000, "tail mode: trials")
		tailSeed        = flag.Uint64("tail-seed", 1, "tail mode: batch seed (also derives the workload)")
		checkpoint      = flag.String("checkpoint", "", "tail mode: journal progress to this file (atomic rewrite every -checkpoint-every trials)")
		checkpointEvery = flag.Int("checkpoint-every", 0, "tail mode: trials between checkpoint flushes (0 = engine default)")
		resume          = flag.String("resume", "", "tail mode: resume from this checkpoint journal, skipping its covered trials")
		faults          = flag.String("faults", "", "tail mode: deterministic fault plan, e.g. panic:p=1e-4,stall:p=1e-4,builderr:p=1e-5")
		faultSeed       = flag.Uint64("fault-seed", 0, "tail mode: fault-plan seed (independent of -tail-seed)")
		agents          = flag.Int("agents", 0, "tail mode: agent count k (0 = legacy two-agent batch; k>2 needs a team-capable algorithm)")
		wakeDelay       = flag.Int64("wake-delay", 0, "tail mode: delay the last agent's wake-up by this many rounds")
		meet            = flag.String("meet", "", "tail mode: meeting predicate, all|firstpair (empty = all)")
	)
	flag.Parse()

	cfg := fnr.ExperimentConfig{Quick: *quick, Seeds: *trials, Workers: *parallel}
	if *shard != "" {
		var err error
		if cfg.ShardIndex, cfg.ShardCount, err = parseShard(*shard); err != nil {
			log.Fatal(err)
		}
	}
	switch *preset {
	case "practical":
		cfg.Params = fnr.PracticalParams()
	case "paper":
		cfg.Params = fnr.PaperParams()
	default:
		log.Fatalf("unknown preset %q", *preset)
	}

	if *tailAlgo != "" {
		runTail(cfg, tailOptions{
			algorithm: *tailAlgo,
			params:    *preset,
			n:         *tailN, d: *tailD,
			trials: *tailTrials, seed: *tailSeed,
			checkpoint: *checkpoint, checkpointEvery: *checkpointEvery,
			resume: *resume,
			faults: *faults, faultSeed: *faultSeed,
			agents: *agents, wakeDelay: *wakeDelay, meet: *meet,
		})
		return
	}

	var selected []fnr.Experiment
	if *runList == "all" {
		selected = fnr.Experiments()
	} else {
		for _, id := range strings.Split(*runList, ",") {
			id = strings.TrimSpace(id)
			e, ok := fnr.ExperimentByID(id)
			if !ok {
				log.Fatalf("unknown experiment %q", id)
			}
			selected = append(selected, e)
		}
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}

	type jsonTable struct {
		ID        string     `json:"id"`
		Title     string     `json:"title"`
		Claim     string     `json:"claim"`
		Columns   []string   `json:"columns"`
		Rows      [][]string `json:"rows"`
		Notes     []string   `json:"notes"`
		ElapsedMS int64      `json:"elapsed_ms"`
	}
	var jsonTables []jsonTable
	for _, e := range selected {
		start := time.Now()
		tb, err := e.Run(cfg)
		if err != nil {
			log.Fatalf("%s: %v", e.ID, err)
		}
		elapsed := time.Since(start)
		if *jsonOut {
			jsonTables = append(jsonTables, jsonTable{
				ID: tb.ID, Title: tb.Title, Claim: tb.Claim,
				Columns: tb.Columns, Rows: tb.Rows, Notes: tb.Notes,
				ElapsedMS: elapsed.Milliseconds(),
			})
		} else {
			fmt.Println(tb.Render())
			fmt.Printf("(%s completed in %v)\n\n", e.ID, elapsed.Round(time.Millisecond))
		}
		if *csvDir != "" {
			path := filepath.Join(*csvDir, strings.ToLower(e.ID)+".csv")
			f, err := os.Create(path)
			if err != nil {
				log.Fatal(err)
			}
			if err := tb.WriteCSV(f); err != nil {
				f.Close()
				log.Fatalf("%s: writing csv: %v", e.ID, err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonTables); err != nil {
			log.Fatal(err)
		}
	}
}

// tailOptions collects the -tail* flag values.
type tailOptions struct {
	algorithm       string
	params          string
	n, d            int
	trials          int
	seed            uint64
	checkpoint      string
	checkpointEvery int
	resume          string
	faults          string
	faultSeed       uint64
	agents          int
	wakeDelay       int64
	meet            string
}

// runTail executes one long crash-safe batch and prints its aggregate
// as indented JSON. The whole run is one fnr.JobSpec — the same
// serializable description cmd/fnrd accepts over HTTP — so the
// workload derivation (PCG stream 0xbe7c4) and the aggregate bytes
// match a daemon submission of the same parameters exactly.
func runTail(cfg fnr.ExperimentConfig, opt tailOptions) {
	// SIGINT/SIGTERM cancel the batch at the next chunk boundary via
	// the drain helper shared with cmd/fnrd; the run still flushes its
	// journal and prints the partial aggregate.
	ctx, stop := server.SignalContext(context.Background())
	defer stop()

	spec := fnr.JobSpec{
		Algorithm:       opt.algorithm,
		Workload:        &fnr.JobWorkload{Kind: "planted", N: opt.n, D: opt.d, Seed: opt.seed},
		Trials:          opt.trials,
		Seed:            opt.seed,
		Params:          opt.params,
		ShardIndex:      cfg.ShardIndex,
		ShardCount:      cfg.ShardCount,
		Faults:          opt.faults,
		FaultSeed:       opt.faultSeed,
		Checkpoint:      opt.checkpoint,
		CheckpointEvery: opt.checkpointEvery,
		Resume:          opt.resume,
		Agents:          opt.agents,
		Meet:            opt.meet,
	}
	if opt.wakeDelay > 0 {
		// -wake-delay τ delays the last agent; everyone else wakes at
		// round 0. The spec's delay vector must match the team size.
		k := opt.agents
		if k == 0 {
			k = 2
		}
		wd := make([]int64, k)
		wd[k-1] = opt.wakeDelay
		spec.WakeDelays = wd
	}
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		log.Fatalf("tail: %v", err)
	}

	res, err := fnr.RunJob(ctx, spec, fnr.JobExecOptions{Workers: cfg.Workers})
	// Cancellation still yields the partial result; report it before
	// deciding the exit status.
	cancelled := err != nil && ctx.Err() != nil && res != nil
	if err != nil && !cancelled {
		log.Fatalf("tail: %v", err)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if encErr := enc.Encode(res.Aggregate()); encErr != nil {
		log.Fatal(encErr)
	}
	if cancelled {
		log.Fatalf("tail: interrupted (%v); coverage flushed, rerun with -resume to finish", err)
	}
}
