// Package job defines the serializable unit of batch work shared by
// every front end — experiments -tail and the fnrd daemon. A Spec
// names a registered algorithm, a workload (or a reference to an
// already-built graph), a trial count and seed, and the optional
// shard / fault-plan / checkpoint policy; Materialize derives the
// workload's graph and start pair deterministically, and Run routes
// the spec through the engine's reduced or checkpointed entry points.
//
// Specs have a canonical JSON encoding and two content hashes:
// Spec.Hash identifies the computation (everything that determines
// the aggregate — execution details like checkpoint paths are
// excluded), and Workload.Key identifies the built graph + start pair
// alone (the graph-cache key, shared by specs that differ only in
// algorithm, trials, or seed).
//
// Workload derivation is the single home of the idiom the CLIs used
// to each open-code: a PCG(seed, stream) generator builds the graph,
// then the *same* stream draws the adjacent start pair. The default
// stream constant 0xbe7c4 is the one experiments -tail and fnrd
// submissions use; the harness suite passes its historical stream
// via Workload.Stream so every pre-refactor instance is reproduced
// byte for byte.
package job

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"

	"fnr/internal/algo"
	"fnr/internal/core"
	"fnr/internal/engine"
	"fnr/internal/graph"
	"fnr/internal/lower"
	"fnr/internal/sim"
)

// DefaultStream is the PCG stream constant of the standard workload
// derivation (experiments -tail, fnrd submissions).
const DefaultStream uint64 = 0xbe7c4

// Workload names a deterministically derivable instance: a generated
// graph plus an adjacent start pair, both functions of (Kind, N, D/P,
// Seed, Stream) alone.
type Workload struct {
	// Kind selects the generator: "planted" (PlantedMinDegree, the
	// default), "gnp" (Erdős–Rényi G(n,p)), "complete", "ring", or a
	// lower-bound family "hard:twostars", "hard:starclique",
	// "hard:kt0", "hard:distance2" (sized by N; start pair fixed by
	// the instance, no RNG).
	Kind string `json:"kind"`
	// N is the vertex-count parameter (family-specific sizing for
	// hard instances, matching fnr.HardInstance).
	N int `json:"n"`
	// D is the planted minimum degree (Kind "planted").
	D int `json:"d,omitempty"`
	// P is the edge probability (Kind "gnp").
	P float64 `json:"p,omitempty"`
	// Seed drives graph generation and the start-pair draw.
	Seed uint64 `json:"seed,omitempty"`
	// Stream overrides the PCG stream constant (0 = DefaultStream).
	// The harness suite uses its historical 0x9e3779b97f4a7c15.
	Stream uint64 `json:"stream,omitempty"`
}

// Materialized is a built workload: the immutable graph and the
// derived adjacent start pair.
type Materialized struct {
	Graph          *graph.Graph
	StartA, StartB graph.Vertex
}

// normalized maps the zero Kind to its default so equal workloads
// hash equally however they were spelled.
func (w Workload) normalized() Workload {
	if w.Kind == "" {
		w.Kind = "planted"
	}
	return w
}

// Validate checks the structural parameters (generator-specific
// constraints surface from the generator itself at Materialize time).
func (w Workload) Validate() error {
	w = w.normalized()
	switch {
	case w.N <= 0:
		return fmt.Errorf("job: workload n must be positive, got %d", w.N)
	case w.Kind == "gnp" && (w.P < 0 || w.P > 1):
		return fmt.Errorf("job: workload p must be in [0, 1], got %v", w.P)
	}
	switch w.Kind {
	case "planted", "gnp", "complete", "ring":
		return nil
	case "hard:twostars", "hard:starclique", "hard:kt0", "hard:distance2":
		return nil
	}
	return fmt.Errorf("job: unknown workload kind %q", w.Kind)
}

// Key is the workload's content hash: sha256 over the canonical JSON
// of the normalized workload, hex-encoded. Two specs with equal keys
// materialize identical graphs and start pairs — the graph-cache key.
func (w Workload) Key() string {
	data, err := json.Marshal(w.normalized())
	if err != nil {
		// Workload has only scalar fields; Marshal cannot fail.
		panic(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// stream resolves the PCG stream constant.
func (w Workload) stream() uint64 {
	if w.Stream == 0 {
		return DefaultStream
	}
	return w.Stream
}

// hardInstance builds the lower-bound families, sized exactly like
// fnr.HardInstance so "hard:*" workloads and the public constructor
// agree on instances.
func hardInstance(kind string, n int) (*lower.Instance, error) {
	switch kind {
	case "hard:twostars":
		return lower.TwoStarsInstance(max(1, (n-2)/2))
	case "hard:starclique":
		return lower.StarCliqueInstance(max(1, n/8), 4)
	case "hard:kt0":
		return lower.KT0Instance(n)
	case "hard:distance2":
		return lower.Distance2Instance(max(3, (n+1)/2))
	}
	return nil, fmt.Errorf("job: unknown workload kind %q", kind)
}

// Materialize builds the workload: generate the graph from
// PCG(Seed, stream), then draw an adjacent start pair from the same
// stream — a uniformly random non-isolated vertex and a uniform
// neighbor behind one of its ports. The result depends only on the
// workload's fields, so equal workloads (equal Key) are
// byte-identical across processes.
func (w Workload) Materialize() (Materialized, error) {
	w = w.normalized()
	if err := w.Validate(); err != nil {
		return Materialized{}, err
	}
	if strings.HasPrefix(w.Kind, "hard:") {
		inst, err := hardInstance(w.Kind, w.N)
		if err != nil {
			return Materialized{}, err
		}
		return Materialized{Graph: inst.G, StartA: inst.StartA, StartB: inst.StartB}, nil
	}
	rng := rand.New(rand.NewPCG(w.Seed, w.stream()))
	var (
		g   *graph.Graph
		err error
	)
	switch w.Kind {
	case "planted":
		g, err = graph.PlantedMinDegree(w.N, w.D, rng)
	case "gnp":
		g, err = graph.GNP(w.N, w.P, rng)
	case "complete":
		g, err = graph.Complete(w.N)
	case "ring":
		g, err = graph.Ring(w.N)
	}
	if err != nil {
		return Materialized{}, fmt.Errorf("job: workload: %w", err)
	}
	if g.MaxDegree() == 0 {
		return Materialized{}, errors.New("job: workload graph has no edges")
	}
	sa := graph.Vertex(rng.IntN(g.N()))
	for g.Degree(sa) == 0 {
		sa = graph.Vertex(rng.IntN(g.N()))
	}
	sb := g.Adj(sa)[rng.IntN(g.Degree(sa))]
	return Materialized{Graph: g, StartA: sa, StartB: sb}, nil
}

// Spec is one batch job, fully serializable. The zero values of the
// optional fields mean "default": Delta 0 resolves to the
// materialized graph's minimum degree (every CLI preset's choice),
// Delta -1 means "unknown to the agents" (the engine's doubling
// estimation), Params "" means the practical preset.
type Spec struct {
	// Algorithm is a registry name (e.g. "whiteboard", "sweep").
	Algorithm string `json:"algorithm"`
	// Workload derives the instance; exactly one of Workload and
	// GraphRef must be set.
	Workload *Workload `json:"workload,omitempty"`
	// GraphRef references an already-materialized workload by its
	// Workload.Key — the daemon resolves it against its graph cache.
	GraphRef string `json:"graph_ref,omitempty"`
	// StartA/StartB override the materialized start pair (dense
	// vertex indices).
	StartA *int `json:"start_a,omitempty"`
	StartB *int `json:"start_b,omitempty"`
	// Trials and Seed define the batch; per-trial seeds derive from
	// (Seed, global trial index) exactly as in engine.Batch.
	Trials int    `json:"trials"`
	Seed   uint64 `json:"seed"`
	// Delta is the minimum degree told to the agents: 0 = the
	// materialized graph's true minimum degree, -1 = unknown, > 0 =
	// that value.
	Delta int `json:"delta,omitempty"`
	// MaxRounds bounds each trial (0 = engine default).
	MaxRounds int64 `json:"max_rounds,omitempty"`
	// Params selects the constant preset: "" or "practical", or
	// "paper".
	Params string `json:"params,omitempty"`
	// ShardIndex/ShardCount run only the global trial range
	// [Trials·i/k, Trials·(i+1)/k); 0/0 (or k = 1) is unsharded.
	ShardIndex int `json:"shard_index,omitempty"`
	ShardCount int `json:"shard_count,omitempty"`
	// Faults is a deterministic fault-injection plan in the
	// engine.ParseFaultPlan grammar; FaultSeed seeds it.
	Faults    string `json:"faults,omitempty"`
	FaultSeed uint64 `json:"fault_seed,omitempty"`
	// Checkpoint journals progress to this path (atomic rewrite every
	// CheckpointEvery trials; 0 = engine default cadence); Resume
	// loads a prior journal and runs only its uncovered spans. These
	// are execution policy, not identity: they do not affect Hash.
	Checkpoint      string `json:"checkpoint,omitempty"`
	CheckpointEvery int    `json:"checkpoint_every,omitempty"`
	Resume          string `json:"resume,omitempty"`

	// The optional scenario block — k-agent teams and delayed wake-ups
	// (sim.Scenario). All four fields are appended with omitempty so a
	// spec without them canonical-JSONs and hashes byte-identically to
	// pre-scenario specs.
	//
	// Agents is the team size k (0 = the legacy two-agent setting;
	// otherwise 2 ≤ k ≤ sim.MaxAgents). When Starts is empty, agents 0
	// and 1 start at the materialized (or start_a/start_b) pair and
	// agents 2..k-1 at extra vertices derived deterministically from
	// (graph, pair, Seed) — distinct, non-isolated.
	Agents int `json:"agents,omitempty"`
	// Starts overrides every agent's start vertex (dense indices,
	// pairwise distinct); its length is the team size. Mutually
	// exclusive with start_a/start_b.
	Starts []int `json:"starts,omitempty"`
	// WakeDelays holds one wake delay per agent: the number of rounds
	// the agent sleeps at its start vertex before its first action.
	// Empty means every agent wakes at round 0.
	WakeDelays []int64 `json:"wake_delays,omitempty"`
	// Meet selects the meeting predicate: "" (or "all") = all k agents
	// gathered at one vertex, "firstpair" = first co-location of any
	// two agents.
	Meet string `json:"meet,omitempty"`
}

// ExecOptions are the per-process execution knobs that never affect
// results (and therefore stay out of the canonical encoding): worker
// parallelism.
type ExecOptions struct {
	Workers int
}

// Normalize maps equivalent spellings to one canonical form: default
// workload kind, Params "practical" → "", ShardCount ≤ 1 → unsharded
// 0/0, Meet "all" → "", all-zero WakeDelays dropped, and a bare
// Agents 2 (no starts, delays or predicate — observably the legacy
// setting) cleared to 0.
func (s Spec) Normalize() Spec {
	if s.Workload != nil {
		w := s.Workload.normalized()
		s.Workload = &w
	}
	if s.Params == "practical" {
		s.Params = ""
	}
	if s.ShardCount <= 1 {
		s.ShardIndex, s.ShardCount = 0, 0
	}
	if s.Meet == "all" {
		s.Meet = ""
	}
	if len(s.WakeDelays) > 0 && !slices.ContainsFunc(s.WakeDelays, func(d int64) bool { return d != 0 }) {
		s.WakeDelays = nil
	}
	if s.Agents == 2 && len(s.Starts) == 0 && len(s.WakeDelays) == 0 && s.Meet == "" {
		s.Agents = 0
	}
	return s
}

// hasScenario reports whether any scenario field survives
// normalization — i.e. whether the spec lowers to a Batch with a
// non-nil Scenario.
func (s Spec) hasScenario() bool {
	return s.Agents != 0 || len(s.Starts) > 0 || len(s.WakeDelays) > 0 || s.Meet != ""
}

// teamSize resolves the agent count: explicit Agents, else the length
// of Starts or WakeDelays, else 2.
func (s Spec) teamSize() int {
	switch {
	case s.Agents != 0:
		return s.Agents
	case len(s.Starts) > 0:
		return len(s.Starts)
	case len(s.WakeDelays) > 0:
		return len(s.WakeDelays)
	}
	return 2
}

// Validate checks everything checkable without building the graph.
// Algorithm names resolve against the registry, so callers must have
// the strategy registrations imported (importing package fnr, or the
// registration packages directly, suffices).
func (s Spec) Validate() error {
	s = s.Normalize()
	if s.Algorithm == "" {
		return errors.New("job: spec has no algorithm")
	}
	spec, err := algo.Lookup(s.Algorithm)
	if err != nil {
		return fmt.Errorf("job: %w", err)
	}
	switch {
	case s.Workload == nil && s.GraphRef == "":
		return errors.New("job: spec needs a workload or a graph_ref")
	case s.Workload != nil && s.GraphRef != "":
		return errors.New("job: workload and graph_ref are mutually exclusive")
	case (s.StartA == nil) != (s.StartB == nil):
		return errors.New("job: start_a and start_b must be set together")
	case s.Trials <= 0:
		return fmt.Errorf("job: trials must be positive, got %d", s.Trials)
	case s.Delta < -1:
		return fmt.Errorf("job: delta must be ≥ -1, got %d", s.Delta)
	case s.ShardCount > 0 && (s.ShardIndex < 0 || s.ShardIndex >= s.ShardCount):
		return fmt.Errorf("job: shard %d/%d out of range", s.ShardIndex, s.ShardCount)
	case s.CheckpointEvery < 0:
		return fmt.Errorf("job: checkpoint_every must be ≥ 0, got %d", s.CheckpointEvery)
	}
	if s.Workload != nil {
		if err := s.Workload.Validate(); err != nil {
			return err
		}
	}
	if _, err := s.params(); err != nil {
		return err
	}
	if _, err := s.faultPlan(); err != nil {
		return err
	}
	return s.validateScenario(spec)
}

// validateScenario checks the scenario block's internal consistency
// and the algorithm's team support; vertex-range and engine-level
// checks happen at lowering time against the materialized graph.
func (s Spec) validateScenario(spec algo.Spec) error {
	if !s.hasScenario() {
		return nil
	}
	k := s.teamSize()
	switch {
	case k < 2:
		return fmt.Errorf("job: a scenario needs at least 2 agents, got %d", k)
	case k > sim.MaxAgents:
		return fmt.Errorf("job: scenario has %d agents, limit is %d", k, sim.MaxAgents)
	case len(s.Starts) > 0 && len(s.Starts) != k:
		return fmt.Errorf("job: %d starts for %d agents", len(s.Starts), k)
	case len(s.Starts) > 0 && (s.StartA != nil || s.StartB != nil):
		return errors.New("job: starts and start_a/start_b are mutually exclusive")
	case len(s.WakeDelays) > 0 && len(s.WakeDelays) != k:
		return fmt.Errorf("job: %d wake delays for %d agents (want 0 or %d)", len(s.WakeDelays), k, k)
	}
	for i, v := range s.Starts {
		if v < 0 {
			return fmt.Errorf("job: agent %d start vertex %d is negative", i, v)
		}
		for j := range i {
			if s.Starts[j] == v {
				return fmt.Errorf("job: agents %d and %d both start at vertex %d", j, i, v)
			}
		}
	}
	for i, d := range s.WakeDelays {
		if d < 0 {
			return fmt.Errorf("job: agent %d wake delay %d is negative", i, d)
		}
	}
	if s.Meet != "" && s.Meet != "firstpair" {
		return fmt.Errorf("job: unknown meet predicate %q (want \"all\" or \"firstpair\")", s.Meet)
	}
	if k > 2 && !spec.SupportsTeam() {
		return fmt.Errorf("job: algo %q does not support %d agents (two-agent strategy)", s.Algorithm, k)
	}
	return nil
}

// CanonicalJSON is the spec's canonical wire form: the normalized
// spec marshaled with fixed field order. Equal specs (after
// normalization) encode identically.
func (s Spec) CanonicalJSON() ([]byte, error) {
	return json.Marshal(s.Normalize())
}

// Hash is the spec's content hash: sha256 over the canonical JSON of
// the result-determining fields, hex-encoded. Checkpoint policy
// (Checkpoint, CheckpointEvery, Resume) is execution detail — a
// resumed run is byte-identical to an uninterrupted one — and is
// excluded, so a job and its resume resubmission hash the same.
func (s Spec) Hash() (string, error) {
	s.Checkpoint, s.CheckpointEvery, s.Resume = "", 0, ""
	data, err := s.CanonicalJSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// WorkloadKey is the graph-cache key: the workload's content hash,
// or the GraphRef verbatim (a GraphRef *is* a workload key echoed
// back by a client).
func (s Spec) WorkloadKey() string {
	if s.GraphRef != "" {
		return s.GraphRef
	}
	if s.Workload == nil {
		return ""
	}
	return s.Workload.Key()
}

// params resolves the constant preset.
func (s Spec) params() (core.Params, error) {
	switch s.Params {
	case "", "practical":
		return core.PracticalParams(), nil
	case "paper":
		return core.PaperParams(), nil
	}
	return core.Params{}, fmt.Errorf("job: unknown params preset %q", s.Params)
}

// faultPlan parses the fault plan, nil when none.
func (s Spec) faultPlan() (*engine.FaultPlan, error) {
	if s.Faults == "" {
		return nil, nil
	}
	return engine.ParseFaultPlan(s.Faults, s.FaultSeed)
}

// Materialize builds the spec's own workload. Specs carrying a
// GraphRef cannot materialize — resolve the reference against a
// graph cache instead.
func (s Spec) Materialize() (Materialized, error) {
	if s.Workload == nil {
		return Materialized{}, fmt.Errorf("job: spec has no workload (graph_ref %q must be resolved by the caller)", s.GraphRef)
	}
	return s.Workload.Materialize()
}

// Batch lowers the spec onto a materialized workload, producing the
// engine batch every entry point shares.
func (s Spec) Batch(m Materialized, opt ExecOptions) (engine.Batch, error) {
	s = s.Normalize()
	params, err := s.params()
	if err != nil {
		return engine.Batch{}, err
	}
	plan, err := s.faultPlan()
	if err != nil {
		return engine.Batch{}, err
	}
	sa, sb := m.StartA, m.StartB
	if s.StartA != nil && s.StartB != nil {
		sa, sb = graph.Vertex(*s.StartA), graph.Vertex(*s.StartB)
	}
	delta := s.Delta
	switch {
	case delta == 0:
		if m.Graph != nil {
			delta = m.Graph.MinDegree()
		}
	case delta < 0:
		delta = 0
	}
	b := engine.Batch{
		Graph:      m.Graph,
		StartA:     sa,
		StartB:     sb,
		Algorithm:  s.Algorithm,
		Params:     params,
		Delta:      delta,
		Trials:     s.Trials,
		Seed:       s.Seed,
		MaxRounds:  s.MaxRounds,
		Workers:    opt.Workers,
		ShardIndex: s.ShardIndex,
		ShardCount: s.ShardCount,
		Faults:     plan,
	}
	if s.hasScenario() {
		sc, err := s.scenario(m.Graph, sa, sb)
		if err != nil {
			return engine.Batch{}, err
		}
		b.Scenario = sc
	}
	return b, nil
}

// scenarioStream is the PCG stream constant of extra-start derivation
// — its own stream so scenario starts are decorrelated from both the
// workload draw (Workload.stream) and the per-trial seeds.
const scenarioStream uint64 = 0x5ce7a2100

// scenario lowers the spec's scenario block onto the materialized
// graph and start pair.
func (s Spec) scenario(g *graph.Graph, sa, sb graph.Vertex) (*sim.Scenario, error) {
	k := s.teamSize()
	sc := &sim.Scenario{MeetFirstPair: s.Meet == "firstpair"}
	if len(s.Starts) > 0 {
		sc.Starts = make([]graph.Vertex, len(s.Starts))
		for i, v := range s.Starts {
			sc.Starts[i] = graph.Vertex(v)
		}
	} else {
		starts, err := deriveStarts(g, sa, sb, k, s.Seed)
		if err != nil {
			return nil, err
		}
		sc.Starts = starts
	}
	if len(s.WakeDelays) > 0 {
		sc.WakeDelays = slices.Clone(s.WakeDelays)
	}
	return sc, nil
}

// deriveStarts extends the two-agent start pair to a k-agent start
// vector: agents 0 and 1 keep (sa, sb), agents 2..k-1 draw distinct
// non-isolated vertices from PCG(seed, scenarioStream) — a pure
// function of (graph, pair, seed), so graph_ref submissions and cache
// hits derive the same vector as local materialization. Rejection
// sampling is bounded; a crowded draw falls back to a deterministic
// linear scan, so the derivation always terminates.
func deriveStarts(g *graph.Graph, sa, sb graph.Vertex, k int, seed uint64) ([]graph.Vertex, error) {
	starts := append(make([]graph.Vertex, 0, k), sa, sb)
	if k <= 2 {
		return starts, nil
	}
	if g == nil {
		return nil, errors.New("job: cannot derive scenario starts without a graph")
	}
	n := g.N()
	rng := rand.New(rand.NewPCG(seed, scenarioStream))
	for len(starts) < k {
		var v graph.Vertex
		found := false
		for range 64 {
			c := graph.Vertex(rng.IntN(n))
			if g.Degree(c) > 0 && !slices.Contains(starts, c) {
				v, found = c, true
				break
			}
		}
		if !found {
			off := rng.IntN(n)
			for d := range n {
				c := graph.Vertex((off + d) % n)
				if g.Degree(c) > 0 && !slices.Contains(starts, c) {
					v, found = c, true
					break
				}
			}
		}
		if !found {
			return nil, fmt.Errorf("job: graph has fewer than %d non-isolated vertices for a %d-agent scenario", k, k)
		}
		starts = append(starts, v)
	}
	return starts, nil
}

// Result is a finished (or cancelled-partway) job: the merged reducer
// plus the batch it ran, which together produce the aggregate.
type Result struct {
	Reducer *engine.Reducer
	Batch   engine.Batch
}

// Aggregate renders the result's deterministic summary — identical
// bytes to fnr.RunBatch on the same batch, whatever entry point
// produced the reducer.
func (r *Result) Aggregate() *engine.Aggregate {
	return r.Reducer.Aggregate(r.Batch)
}

// Run materializes the spec's workload and executes it; see RunBuilt.
func Run(ctx context.Context, s Spec, opt ExecOptions) (*Result, error) {
	m, err := s.Materialize()
	if err != nil {
		return nil, err
	}
	return RunBuilt(ctx, s, m, opt)
}

// RunBuilt executes the spec on an already-materialized workload
// (typically a graph-cache hit) through engine.RunReduced. A Resume
// path loads the prior journal first, so only its uncovered trial
// spans re-run; the journal goes to Checkpoint, or back to Resume when
// Checkpoint is empty. Cancelling ctx returns the partial Result
// completed so far together with ctx.Err() — a journalled run flushes
// before returning, so a cancelled job resubmitted with Resume set
// finishes byte-identical to an uninterrupted run.
func RunBuilt(ctx context.Context, s Spec, m Materialized, opt ExecOptions) (*Result, error) {
	s = s.Normalize()
	b, err := s.Batch(m, opt)
	if err != nil {
		return nil, err
	}
	var prior *engine.Reducer
	if s.Resume != "" {
		if prior, err = engine.ReadCheckpointFile(s.Resume, b); err != nil {
			return nil, fmt.Errorf("job: resume: %w", err)
		}
	}
	ck := engine.Checkpoint{Path: cmp.Or(s.Checkpoint, s.Resume), Every: s.CheckpointEvery}
	r, err := engine.RunReduced(ctx, b, ck, prior)
	if r == nil {
		return nil, err
	}
	return &Result{Reducer: r, Batch: b}, err
}
