// Package harness defines the experiment suite that validates every
// quantitative claim of the paper (All is the index):
// E1–E3 validate the upper-bound theorems' scaling, E4–E5 the Sample
// and Construct lemmas, E6–E9 the four lower bounds, E10 the w.h.p.
// claims, and A1–A2 the design-choice ablations. Each experiment
// produces a Table that cmd/experiments prints as markdown, CSV or
// JSON.
package harness

import (
	"context"
	"runtime"

	"fnr/internal/core"
	"fnr/internal/engine"
	"fnr/internal/graph"
	"fnr/internal/job"
	"fnr/internal/sim"

	// Strategy registrations for the engine batches the experiments
	// submit.
	_ "fnr/internal/algo/paper"
	_ "fnr/internal/baseline"
)

// Config tunes how heavy the experiment suite runs.
type Config struct {
	// Quick shrinks sweeps to the smallest sizes (used by -short tests
	// and smoke runs).
	Quick bool
	// Seeds is the number of independent trials per configuration
	// (default 10, quick 4).
	Seeds int
	// Workers bounds trial parallelism (default GOMAXPROCS).
	Workers int
	// ShardIndex and ShardCount split every engine batch the suite
	// submits across independent processes (see engine.Batch): shard
	// i of k runs only its slice of each batch's trials, with seeds
	// still derived from global trial indices. Tables from a sharded
	// run summarize partial samples; merge across shards externally.
	// ShardCount 0 or 1 = unsharded. Bespoke agent-pair trials
	// (runTrials) are not sharded.
	ShardIndex, ShardCount int
	// Params selects the algorithm constants (default
	// core.PracticalParams; see core.Params on constant scaling).
	Params core.Params
}

func (c Config) withDefaults() Config {
	if c.Seeds <= 0 {
		if c.Quick {
			c.Seeds = 4
		} else {
			c.Seeds = 10
		}
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Params == (core.Params{}) {
		c.Params = core.PracticalParams()
	}
	return c
}

// Experiment is one entry of the suite.
type Experiment struct {
	// ID is the identifier cmd/experiments -run selects ("E1" … "E12",
	// "S1", "A1", "A2").
	ID string
	// Title is a one-line description.
	Title string
	// Claim cites the paper statement under validation.
	Claim string
	// Run executes the experiment and renders its table.
	Run func(cfg Config) (*Table, error)
}

// All returns the full suite in presentation order.
func All() []Experiment {
	return []Experiment{
		{ID: "E1", Title: "Theorem 1 scaling in n", Claim: "Main-Rendezvous takes O(n/δ·log²n + √(n∆)/δ·log n) rounds w.h.p. (δ ≥ √n)", Run: runE1},
		{ID: "E2", Title: "Theorem 1 crossover vs the trivial O(∆) sweep", Claim: "sublinear rendezvous beats the ∆-sweep once δ = ω(√n·log n)", Run: runE2},
		{ID: "E3", Title: "Theorem 2 scaling (no whiteboards)", Claim: "Rendezvous-without-Whiteboards takes O(n/√δ·log²n) rounds w.h.p. after t'", Run: runE3},
		{ID: "E4", Title: "Sample(Γ,α) classification accuracy", Claim: "Lemma 2 / Cor. 1: outputs are α-heavy, non-outputs 4α-light, w.h.p.", Run: runE4},
		{ID: "E5", Title: "Construct iteration/strict-run budgets", Claim: "Lemmas 6–7: O(n/δ) iterations, O(log n) strict runs, (a,δ/8,2)-dense output", Run: runE5},
		{ID: "E6", Title: "Lower bound: bounded minimum degree", Claim: "Theorem 3 / Fig. 1: δ = o(√n) forces Ω(∆) rounds", Run: runE6},
		{ID: "E7", Title: "Lower bound: no neighborhood IDs (KT0)", Claim: "Theorem 4 / Fig. 2: without neighbor IDs, Ω(n) rounds", Run: runE7},
		{ID: "E8", Title: "Lower bound: initial distance two", Claim: "Theorem 5 / Fig. 3: distance 2 forces Ω(n) rounds", Run: runE8},
		{ID: "E9", Title: "Lower bound: deterministic algorithms", Claim: "Theorem 6 / Lemma 9: adaptive adversary forces ≥ n/32 rounds", Run: runE9},
		{ID: "E10", Title: "Success probability of both algorithms", Claim: "both theorems hold w.h.p.; measured success rates under scaled constants", Run: runE10},
		{ID: "E11", Title: "Complete graphs: Anderson–Weber consistency", Claim: "on K_n the generalized mechanism reproduces [6]'s Θ(√n) birthday behaviour", Run: runE11},
		{ID: "E12", Title: "Theorem 1 across graph families", Claim: "the w.h.p. guarantee holds on every δ ≥ √n family, not just the scaling workload", Run: runE12},
		{ID: "S1", Title: "Scenario layer: delayed wake-up and k-agent gathering", Claim: "wake delay τ costs at most O(τ) rounds; extra agents only speed up the first pairwise meeting", Run: runS1},
		{ID: "A1", Title: "Ablation: two-step vs strict-only Construct", Claim: "§3.3: optimistic+strict beats the O((n/δ)²) strict-only strawman", Run: runA1},
		{ID: "A2", Title: "Ablation: doubling δ-estimation overhead", Claim: "Cor. 2: removing min-degree knowledge costs only a constant factor", Run: runA2},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// runTrials fans cfg.Seeds custom trials across the engine's worker
// pool. Each trial receives the deterministic seed derived from
// (batchSeed, trial); results come back in trial order, so downstream
// aggregation is independent of the worker count. Experiments that
// run a registered algorithm end-to-end submit an engine batch via
// runAlgo instead — this generic path is for bespoke agent pairs
// (Construct-only diagnostics, oracle warm starts, observer taps).
func runTrials[T any](cfg Config, batchSeed uint64, f func(trial int, seed uint64) T) []T {
	return engine.Trials(cfg.Workers, cfg.Seeds, func(i int) T {
		return f(i, engine.TrialSeed(batchSeed, i))
	})
}

// runAlgo submits one batch of a registered algorithm to the engine
// and returns the per-trial outcomes.
func runAlgo(cfg Config, trials int, batchSeed uint64, g *graph.Graph, sa, sb graph.Vertex, name string, delta int, maxRounds int64) ([]engine.Outcome, error) {
	return engine.RunOutcomes(context.Background(), engine.Batch{
		Graph:      g,
		StartA:     sa,
		StartB:     sb,
		Algorithm:  name,
		Params:     cfg.Params,
		Delta:      delta,
		Trials:     trials,
		Seed:       batchSeed,
		MaxRounds:  maxRounds,
		Workers:    cfg.Workers,
		ShardIndex: cfg.ShardIndex,
		ShardCount: cfg.ShardCount,
	})
}

// harnessStream is the PCG stream constant the suite has always used
// for workload derivation — passed through job.Workload so the shared
// derivation reproduces every pre-refactor instance bit-for-bit.
const harnessStream uint64 = 0x9e3779b97f4a7c15

// plantedWorkload builds the standard quasi-regular scaling workload: a
// connected graph with min degree ≥ d and a uniformly chosen adjacent
// start pair (a fixed low-index pair would bias ID-partition algorithms
// toward their first phase). The result depends only on (n, d, seed),
// so different trial seeds share the same instance. The derivation
// itself lives in the job layer, shared with the CLIs and fnrd.
func plantedWorkload(n, d int, seed uint64) (*graph.Graph, graph.Vertex, graph.Vertex, error) {
	m, err := job.Workload{Kind: "planted", N: n, D: d, Seed: seed, Stream: harnessStream}.Materialize()
	if err != nil {
		return nil, 0, 0, err
	}
	return m.Graph, m.StartA, m.StartB, nil
}

// workloadSpec names one planted scaling workload by its defining
// parameters.
type workloadSpec struct {
	n, d int
	seed uint64
}

// workload is one generated scaling instance: the graph plus the
// chosen adjacent start pair.
type workload struct {
	g      *graph.Graph
	sa, sb graph.Vertex
}

// genWorkloads fans count workload generations across the engine
// worker pool and returns them in index order, failing on the
// lowest-index error. gen(i) must depend only on i, so the fan-out is
// deterministic — parallelism changes wall-clock time only.
func genWorkloads(cfg Config, count int, gen func(i int) (workload, error)) ([]workload, error) {
	type result struct {
		w   workload
		err error
	}
	results := engine.Trials(cfg.Workers, count, func(i int) result {
		w, err := gen(i)
		return result{w, err}
	})
	out := make([]workload, count)
	for i, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		out[i] = r.w
	}
	return out, nil
}

// plantedWorkloads generates the specs' workload instances in parallel
// across the engine worker pool. Each instance depends only on its own
// (n, d, seed) triple. Scaling experiments front-load their per-config
// graph generation through this instead of generating serially inside
// the measurement loop.
func plantedWorkloads(cfg Config, specs []workloadSpec) ([]workload, error) {
	return genWorkloads(cfg, len(specs), func(i int) (workload, error) {
		g, sa, sb, err := plantedWorkload(specs[i].n, specs[i].d, specs[i].seed)
		return workload{g: g, sa: sa, sb: sb}, err
	})
}

// runPair executes one bespoke rendezvous trial (custom stepper
// pair) and reduces it to an engine.Outcome, matching what batches
// produce. Errors (experiment agents must not abort) surface as Err
// outcomes, which count as misses.
func runPair(g *graph.Graph, sa, sb graph.Vertex, seed uint64, maxRounds int64, kt1, boards bool, a, b sim.Stepper) engine.Outcome {
	return engine.OutcomeOf(sim.RunSteppers(sim.Config{
		Graph:       g,
		StartA:      sa,
		StartB:      sb,
		NeighborIDs: kt1,
		Whiteboards: boards,
		Seed:        seed,
		MaxRounds:   maxRounds,
	}, a, b))
}

// ghost is the idle partner of the single-agent instruments
// (Construct-only runs, the Sample classifier): it halts at round 0.
type ghost struct{}

func (ghost) Init(*sim.StepContext)     {}
func (ghost) Next(*sim.View) sim.Action { return sim.Halt() }

// constructOnly runs agent a's Construct alone from sa, beside an idle
// agent b at sb, and returns its diagnostics (T^a, iteration and
// Sample counts, rounds).
func constructOnly(g *graph.Graph, sa, sb graph.Vertex, seed uint64, p core.Params, know core.Knowledge) (*core.WhiteboardStats, error) {
	st := &core.WhiteboardStats{}
	_, err := sim.RunSteppers(sim.Config{
		Graph: g, StartA: sa, StartB: sb,
		NeighborIDs: true, Seed: seed,
		MaxRounds: 1 << 40, DisableMeeting: true,
	}, core.ConstructOnlyStepper(p, know, st), ghost{})
	return st, err
}

// metRounds extracts the meeting rounds of successful trials.
func metRounds(outcomes []engine.Outcome) []float64 {
	var xs []float64
	for _, o := range outcomes {
		if o.Met {
			xs = append(xs, float64(o.Rounds))
		}
	}
	return xs
}
