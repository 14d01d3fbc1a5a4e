package job_test

import (
	"context"
	"encoding/json"
	"math/rand/v2"
	"path/filepath"
	"strings"
	"testing"

	"fnr/internal/engine"
	"fnr/internal/graph"
	"fnr/internal/job"

	// Strategy registrations: Spec.Validate resolves algorithm names
	// against the registry.
	_ "fnr/internal/algo/paper"
	_ "fnr/internal/baseline"
)

// legacyDerive is the workload-derivation idiom exactly as the CLIs
// and the harness open-coded it before the job package existed — the
// oracle Materialize must reproduce byte for byte.
func legacyDerive(t *testing.T, n, d int, seed, stream uint64) (*graph.Graph, graph.Vertex, graph.Vertex) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, stream))
	g, err := graph.PlantedMinDegree(n, d, rng)
	if err != nil {
		t.Fatal(err)
	}
	sa := graph.Vertex(rng.IntN(g.N()))
	for g.Degree(sa) == 0 {
		sa = graph.Vertex(rng.IntN(g.N()))
	}
	sb := g.Adj(sa)[rng.IntN(g.Degree(sa))]
	return g, sa, sb
}

func TestMaterializeMatchesLegacyDerivation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n, d   int
		seed   uint64
		stream uint64
	}{
		{"default-stream", 256, 16, 7, 0},
		{"tail-stream", 128, 8, 11, 0},
		{"harness-stream", 256, 16, 3, 0x9e3779b97f4a7c15},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stream := tc.stream
			if stream == 0 {
				stream = job.DefaultStream
			}
			wantG, wantA, wantB := legacyDerive(t, tc.n, tc.d, tc.seed, stream)
			m, err := job.Workload{Kind: "planted", N: tc.n, D: tc.d, Seed: tc.seed, Stream: tc.stream}.Materialize()
			if err != nil {
				t.Fatal(err)
			}
			if !m.Graph.Equal(wantG) {
				t.Fatal("materialized graph differs from the legacy derivation")
			}
			if m.StartA != wantA || m.StartB != wantB {
				t.Fatalf("start pair (%d, %d), legacy derivation chose (%d, %d)", m.StartA, m.StartB, wantA, wantB)
			}
		})
	}
}

func TestWorkloadKey(t *testing.T) {
	base := job.Workload{Kind: "planted", N: 64, D: 8, Seed: 3}
	if got := (job.Workload{N: 64, D: 8, Seed: 3}).Key(); got != base.Key() {
		t.Error("empty kind should normalize to planted and share the key")
	}
	for name, other := range map[string]job.Workload{
		"n":      {Kind: "planted", N: 65, D: 8, Seed: 3},
		"d":      {Kind: "planted", N: 64, D: 9, Seed: 3},
		"seed":   {Kind: "planted", N: 64, D: 8, Seed: 4},
		"stream": {Kind: "planted", N: 64, D: 8, Seed: 3, Stream: 0x9e3779b97f4a7c15},
		"kind":   {Kind: "gnp", N: 64, P: 0.5, Seed: 3},
	} {
		if other.Key() == base.Key() {
			t.Errorf("changing %s did not change the workload key", name)
		}
	}
	// Specs differing only in execution share the workload key.
	w := base
	s1 := job.Spec{Algorithm: "sweep", Workload: &w, Trials: 10, Seed: 1}
	s2 := job.Spec{Algorithm: "whiteboard", Workload: &w, Trials: 999, Seed: 42}
	if s1.WorkloadKey() != s2.WorkloadKey() {
		t.Error("specs with equal workloads should share WorkloadKey")
	}
	if ref := (job.Spec{Algorithm: "sweep", GraphRef: "abc", Trials: 1}); ref.WorkloadKey() != "abc" {
		t.Errorf("GraphRef should be the workload key verbatim, got %q", ref.WorkloadKey())
	}
}

func TestSpecHashNormalizationAndExclusions(t *testing.T) {
	w := job.Workload{Kind: "planted", N: 64, D: 8, Seed: 3}
	base := job.Spec{Algorithm: "sweep", Workload: &w, Trials: 100, Seed: 5}
	baseHash, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}

	// Equivalent spellings hash identically.
	for name, same := range map[string]job.Spec{
		"params-practical": {Algorithm: "sweep", Workload: &w, Trials: 100, Seed: 5, Params: "practical"},
		"kind-defaulted":   {Algorithm: "sweep", Workload: &job.Workload{N: 64, D: 8, Seed: 3}, Trials: 100, Seed: 5},
		"shard-1-of-1":     {Algorithm: "sweep", Workload: &w, Trials: 100, Seed: 5, ShardCount: 1},
		"checkpointed":     {Algorithm: "sweep", Workload: &w, Trials: 100, Seed: 5, Checkpoint: "x.ckpt", CheckpointEvery: 7, Resume: "x.ckpt"},
	} {
		h, err := same.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if h != baseHash {
			t.Errorf("%s: hash %s differs from base %s", name, h, baseHash)
		}
	}

	// Result-determining changes do not.
	for name, diff := range map[string]job.Spec{
		"algorithm": {Algorithm: "whiteboard", Workload: &w, Trials: 100, Seed: 5},
		"trials":    {Algorithm: "sweep", Workload: &w, Trials: 101, Seed: 5},
		"seed":      {Algorithm: "sweep", Workload: &w, Trials: 100, Seed: 6},
		"delta":     {Algorithm: "sweep", Workload: &w, Trials: 100, Seed: 5, Delta: 3},
		"params":    {Algorithm: "sweep", Workload: &w, Trials: 100, Seed: 5, Params: "paper"},
		"shard":     {Algorithm: "sweep", Workload: &w, Trials: 100, Seed: 5, ShardIndex: 1, ShardCount: 2},
		"faults":    {Algorithm: "sweep", Workload: &w, Trials: 100, Seed: 5, Faults: "panic:p=0.5", FaultSeed: 1},
	} {
		h, err := diff.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if h == baseHash {
			t.Errorf("changing %s did not change the spec hash", name)
		}
	}
}

func TestValidate(t *testing.T) {
	w := job.Workload{Kind: "planted", N: 64, D: 8, Seed: 3}
	good := job.Spec{Algorithm: "sweep", Workload: &w, Trials: 10, Seed: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	one := 1
	for name, bad := range map[string]job.Spec{
		"no-algorithm":      {Workload: &w, Trials: 10},
		"unknown-algorithm": {Algorithm: "nope", Workload: &w, Trials: 10},
		"no-workload":       {Algorithm: "sweep", Trials: 10},
		"both-sources":      {Algorithm: "sweep", Workload: &w, GraphRef: "k", Trials: 10},
		"zero-trials":       {Algorithm: "sweep", Workload: &w},
		"bad-delta":         {Algorithm: "sweep", Workload: &w, Trials: 10, Delta: -2},
		"bad-shard":         {Algorithm: "sweep", Workload: &w, Trials: 10, ShardIndex: 2, ShardCount: 2},
		"bad-params":        {Algorithm: "sweep", Workload: &w, Trials: 10, Params: "exotic"},
		"bad-faults":        {Algorithm: "sweep", Workload: &w, Trials: 10, Faults: "gibberish"},
		"lone-start":        {Algorithm: "sweep", Workload: &w, Trials: 10, StartA: &one},
		"bad-kind":          {Algorithm: "sweep", Workload: &job.Workload{Kind: "mystery", N: 8}, Trials: 10},
		"bad-n":             {Algorithm: "sweep", Workload: &job.Workload{Kind: "planted", N: 0, D: 1}, Trials: 10},
		"bad-p":             {Algorithm: "sweep", Workload: &job.Workload{Kind: "gnp", N: 8, P: 1.5}, Trials: 10},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: invalid spec accepted", name)
		}
	}
}

func TestCanonicalJSONRoundTrips(t *testing.T) {
	w := job.Workload{Kind: "planted", N: 64, D: 8, Seed: 3}
	s := job.Spec{Algorithm: "sweep", Workload: &w, Trials: 10, Seed: 1, Faults: "panic:p=0.01", FaultSeed: 2}
	data, err := s.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back job.Spec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	data2, err := back.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatalf("canonical JSON not a fixed point:\n%s\n%s", data, data2)
	}
}

func TestHardWorkloads(t *testing.T) {
	for _, kind := range []string{"hard:twostars", "hard:starclique", "hard:kt0", "hard:distance2"} {
		m, err := job.Workload{Kind: kind, N: 32}.Materialize()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if m.Graph == nil || m.Graph.N() == 0 {
			t.Fatalf("%s: empty instance", kind)
		}
		if m.StartA == m.StartB {
			t.Fatalf("%s: degenerate start pair", kind)
		}
	}
	// Hard instances run end to end through Run (sweep works on all
	// KT1 families; distance2 starts at distance two, still valid).
	res, err := job.Run(context.Background(), job.Spec{
		Algorithm: "sweep",
		Workload:  &job.Workload{Kind: "hard:twostars", N: 32},
		Trials:    5, Seed: 9,
	}, job.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if agg := res.Aggregate(); agg.Trials != 5 {
		t.Fatalf("hard workload aggregate trials = %d, want 5", agg.Trials)
	}
}

// TestRunMatchesEngineReduced pins the contract the server's
// byte-identity guarantee rests on: job.Run produces the same
// aggregate JSON as hand-building the batch and calling
// engine.RunReduced.
func TestRunMatchesEngineReduced(t *testing.T) {
	w := job.Workload{Kind: "planted", N: 64, D: 8, Seed: 3}
	spec := job.Spec{Algorithm: "whiteboard", Workload: &w, Trials: 40, Seed: 12}
	res, err := job.Run(context.Background(), spec, job.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(res.Aggregate())
	if err != nil {
		t.Fatal(err)
	}

	m, err := spec.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Batch(m, job.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := engine.RunReduced(context.Background(), b, engine.Checkpoint{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(r.Aggregate(b))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("job.Run aggregate differs from engine.RunReduced:\n%s\n%s", got, want)
	}
}

// TestCheckpointResumeByteIdentical runs half the trials as shard 0/2
// journalling to a checkpoint, resumes the full unsharded spec from
// that journal (so only the uncovered upper half runs), and requires
// the final aggregate to byte-match an uninterrupted run.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "job.ckpt")
	w := job.Workload{Kind: "planted", N: 64, D: 8, Seed: 3}
	full := job.Spec{Algorithm: "sweep", Workload: &w, Trials: 4000, Seed: 21}

	half := full
	half.ShardIndex, half.ShardCount = 0, 2
	half.Checkpoint = ckpt
	if _, err := job.Run(context.Background(), half, job.ExecOptions{}); err != nil {
		t.Fatal(err)
	}

	resumed := full
	resumed.Resume = ckpt
	resumed.Checkpoint = ckpt
	res, err := job.Run(context.Background(), resumed, job.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(res.Aggregate())
	if err != nil {
		t.Fatal(err)
	}

	ref, err := job.Run(context.Background(), full, job.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(ref.Aggregate())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("resumed aggregate differs from uninterrupted run:\n%s\n%s", got, want)
	}
	if strings.Contains(string(got), "trial_spans") {
		t.Fatal("complete resumed run should not carry trial_spans")
	}
}
