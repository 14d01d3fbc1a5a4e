package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"fnr/internal/graph"
	"fnr/internal/sim"

	_ "fnr/internal/algo/paper"
	_ "fnr/internal/baseline"
)

// The engine-level scenario suite: the k=2/τ=0 fold (a legacy-shaped
// scenario must aggregate byte-identically to the pair-field batch on
// every execution path), k-way start validation, k>2 execution and
// rejection, the aggregate's scenario echo, and checkpoint v2.

func aggJSON(t *testing.T, b Batch) []byte {
	t.Helper()
	agg, err := Run(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(agg)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// The differential guarantee of the refactor: a scenario that is
// observably the legacy two-agent setting aggregates byte-identically
// to the same batch spelled with StartA/StartB — across worker
// counts, for both paper algorithms.
func TestLegacyScenarioByteIdenticalAcrossPaths(t *testing.T) {
	g, sa, sb := testGraph(t)
	for _, name := range []string{"whiteboard", "noboard"} {
		for _, workers := range []int{1, 4, 16} {
			legacy := Batch{
				Graph: g, StartA: sa, StartB: sb,
				Algorithm: name, Delta: g.MinDegree(),
				Trials: 20, Seed: 77, MaxRounds: 1 << 22,
				Workers: workers,
			}
			scenario := legacy
			scenario.StartA, scenario.StartB = 0, 0
			scenario.Scenario = &sim.Scenario{
				Starts:     []graph.Vertex{sa, sb},
				WakeDelays: []int64{0, 0},
			}
			lj, sj := aggJSON(t, legacy), aggJSON(t, scenario)
			if !bytes.Equal(lj, sj) {
				t.Errorf("%s/workers%d: scenario batch diverged from legacy batch:\nlegacy:   %s\nscenario: %s", name, workers, lj, sj)
			}
		}
	}
}

// Satellite: the legacy StartA==StartB rejection is now the k=2 case
// of k-way distinct-start validation; both levels must name the
// colliding agents.
func TestDistinctStartValidationKWay(t *testing.T) {
	g, sa, _ := testGraph(t)
	// k=2 via the pair fields (the legacy spelling).
	_, err := Run(context.Background(), Batch{
		Graph: g, StartA: sa, StartB: sa, Algorithm: "sweep", Trials: 2, Seed: 1,
	})
	if err == nil || !strings.Contains(err.Error(), "agents a and b both start at vertex 0") {
		t.Errorf("k=2 equal starts: err = %v, want agents a and b named", err)
	}
	// k=3 with a duplicate in the scenario's start vector.
	_, err = Run(context.Background(), Batch{
		Graph: g, Algorithm: "walkpair", Trials: 2, Seed: 1,
		Scenario: &sim.Scenario{Starts: []graph.Vertex{4, 9, 4}},
	})
	if err == nil || !strings.Contains(err.Error(), "agents a and c both start at vertex 4") {
		t.Errorf("k=3 duplicate starts: err = %v, want agents a and c named", err)
	}
	if err != nil && !strings.Contains(err.Error(), "distinct start vertices") {
		t.Errorf("k=3 duplicate starts: err = %v, want the distinct-start-vertices phrasing", err)
	}
}

// k>2 scenarios run on every oblivious baseline and stay
// deterministic across worker counts; the paper's
// pairwise algorithms reject k>2 loudly.
func TestKAgentScenarios(t *testing.T) {
	g, _, _ := testGraph(t)
	sc := &sim.Scenario{
		Starts:     []graph.Vertex{0, 7, 19, 42},
		WakeDelays: []int64{0, 16, 0, 3},
	}
	for _, name := range []string{"walkpair", "sweep", "dfs", "staywalk", "birthday"} {
		base := Batch{
			Graph: g, Algorithm: name, Delta: g.MinDegree(),
			Trials: 16, Seed: 31, MaxRounds: 1 << 12, Scenario: sc,
		}
		var blobs [][]byte
		for _, workers := range []int{1, 8} {
			b := base
			b.Workers = workers
			blobs = append(blobs, aggJSON(t, b))
		}
		for i := 1; i < len(blobs); i++ {
			if !bytes.Equal(blobs[0], blobs[i]) {
				t.Errorf("%s: k=4 aggregate differs across parallelism:\n%s\n%s", name, blobs[0], blobs[i])
			}
		}
	}
	// The paper's pairwise algorithms must reject k>2 before any
	// worker starts.
	for _, name := range []string{"whiteboard", "noboard"} {
		_, err := Run(context.Background(), Batch{
			Graph: g, Algorithm: name, Delta: g.MinDegree(),
			Trials: 2, Seed: 1, MaxRounds: 1 << 18,
			Scenario: &sim.Scenario{Starts: []graph.Vertex{0, 7, 19}},
		})
		if err == nil || !strings.Contains(err.Error(), "does not support 3 agents") {
			t.Errorf("%s at k=3: err = %v, want a loud two-agent-strategy rejection", name, err)
		}
	}
}

// The aggregate echoes the scenario it ran under — and only then:
// legacy batches and folded legacy-shaped scenarios stay scenario-free.
func TestAggregateScenarioEcho(t *testing.T) {
	g, sa, sb := testGraph(t)
	legacy := Batch{Graph: g, StartA: sa, StartB: sb, Algorithm: "sweep", Trials: 4, Seed: 9}
	agg, err := Run(context.Background(), legacy)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Scenario != nil {
		t.Errorf("legacy batch aggregate carries a scenario: %+v", agg.Scenario)
	}

	folded := legacy
	folded.StartA, folded.StartB = 0, 0
	folded.Scenario = &sim.Scenario{Starts: []graph.Vertex{sa, sb}}
	agg, err = Run(context.Background(), folded)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Scenario != nil {
		t.Errorf("legacy-shaped scenario was not folded away: %+v", agg.Scenario)
	}

	k3 := Batch{
		Graph: g, Algorithm: "walkpair", Trials: 8, Seed: 9, MaxRounds: 1 << 18,
		Scenario: &sim.Scenario{
			Starts:        []graph.Vertex{1, 5, 9},
			WakeDelays:    []int64{0, 256, 0},
			MeetFirstPair: true,
		},
	}
	agg, err = Run(context.Background(), k3)
	if err != nil {
		t.Fatal(err)
	}
	want := &ScenarioInfo{Agents: 3, Starts: []int{1, 5, 9}, WakeDelays: []int64{0, 256, 0}, Meet: "firstpair"}
	if !agg.Scenario.Equal(want) {
		t.Errorf("scenario echo = %+v, want %+v", agg.Scenario, want)
	}
}

// Checkpoint v2: scenario batches journal under the v2 magic with the
// scenario in the identity section; legacy batches keep the v1 bytes;
// every cross-pairing fails identity validation.
func TestCheckpointScenarioIdentity(t *testing.T) {
	g, sa, sb := testGraph(t)
	legacy := Batch{Graph: g, StartA: sa, StartB: sb, Algorithm: "walkpair", Trials: 12, Seed: 3, MaxRounds: 1 << 14}
	scen := Batch{
		Graph: g, Algorithm: "walkpair", Trials: 12, Seed: 3, MaxRounds: 1 << 14,
		Scenario: &sim.Scenario{Starts: []graph.Vertex{2, 11, 23}, WakeDelays: []int64{0, 16, 0}},
	}
	write := func(b Batch) []byte {
		r, err := RunReduced(context.Background(), b, Checkpoint{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteCheckpoint(&buf, b, r); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	legacyBlob, scenBlob := write(legacy), write(scen)
	if got := string(legacyBlob[:8]); got != ckptMagic {
		t.Errorf("legacy journal magic = %q, want v1", got)
	}
	if got := string(scenBlob[:8]); got != ckptMagicV2 {
		t.Errorf("scenario journal magic = %q, want v2", got)
	}

	// Roundtrip: the reloaded reducer aggregates byte-identically.
	r, err := ReadCheckpoint(bytes.NewReader(scenBlob), scen)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Run(context.Background(), scen)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Aggregate(scen).Equal(direct) {
		t.Error("scenario checkpoint roundtrip changed the aggregate")
	}

	// Mismatches fail loudly.
	mismatches := []struct {
		name string
		blob []byte
		b    Batch
	}{
		{"v1 journal, scenario batch", legacyBlob, scen},
		{"v2 journal, legacy batch", scenBlob, legacy},
	}
	wrongDelay := scen
	wrongDelay.Scenario = &sim.Scenario{Starts: []graph.Vertex{2, 11, 23}, WakeDelays: []int64{0, 17, 0}}
	mismatches = append(mismatches, struct {
		name string
		blob []byte
		b    Batch
	}{"wake delays differ", scenBlob, wrongDelay})
	wrongStart := scen
	wrongStart.Scenario = &sim.Scenario{Starts: []graph.Vertex{2, 11, 24}, WakeDelays: []int64{0, 16, 0}}
	mismatches = append(mismatches, struct {
		name string
		blob []byte
		b    Batch
	}{"starts differ", scenBlob, wrongStart})
	for _, tc := range mismatches {
		if _, err := ReadCheckpoint(bytes.NewReader(tc.blob), tc.b); err == nil ||
			!strings.Contains(err.Error(), "different batch") {
			t.Errorf("%s: err = %v, want a different-batch identity error", tc.name, err)
		}
	}

	// A legacy-shaped scenario folds before journalling: its bytes are
	// the v1 journal's, and it resumes against the legacy batch.
	foldable := legacy
	foldable.StartA, foldable.StartB = 0, 0
	foldable.Scenario = &sim.Scenario{Starts: []graph.Vertex{sa, sb}}
	if !bytes.Equal(write(foldable), legacyBlob) {
		t.Error("legacy-shaped scenario journal differs from the legacy journal")
	}
}

// RunReduced resume works for scenario batches: a run cut short
// resumes to the byte-identical aggregate.
func TestScenarioCheckpointResume(t *testing.T) {
	g, _, _ := testGraph(t)
	b := Batch{
		Graph: g, Algorithm: "dfs", Trials: 30, Seed: 8, MaxRounds: 1 << 14,
		Scenario: &sim.Scenario{Starts: []graph.Vertex{0, 33, 66}, WakeDelays: []int64{0, 0, 64}},
	}
	path := t.TempDir() + "/scen.ckpt"
	// First leg: cancel after some progress by bounding to a shard.
	shard := b
	shard.ShardCount, shard.ShardIndex = 3, 0
	r1, err := RunReduced(context.Background(), shard, Checkpoint{Path: path, Every: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.trials == 0 {
		t.Fatal("first leg made no progress")
	}
	prior, err := ReadCheckpointFile(path, b)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunReduced(context.Background(), b, Checkpoint{Path: path, Every: 1}, prior)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Run(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Aggregate(b).Equal(direct) {
		t.Error("resumed scenario run diverged from the uninterrupted aggregate")
	}
}
