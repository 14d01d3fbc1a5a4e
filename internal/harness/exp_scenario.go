package harness

import (
	"context"
	"fmt"

	"fnr/internal/engine"
	"fnr/internal/graph"
	"fnr/internal/sim"
	"fnr/internal/stats"
)

// runS1 probes the scenario layer's two generalizations on the
// standard scaling workload. First, asynchronous wake-up: agent b
// sleeps τ rounds before its first step while a runs the paper's
// whiteboard strategy. The model keeps sleeping agents meetable (a
// position is a position), so a delayed partner is a sitting target
// and the meeting round should stay bounded — growing at most
// additively in τ, never multiplicatively. Second, k-agent gathering:
// independent random-walk teams (walkpair generalized per agent)
// under the first-pair predicate, where more agents means more
// colliding pairs and the first meeting should come sooner, not
// later.
func runS1(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	n, d := 1024, 181
	delays := []int64{0, 16, 256, 4096}
	teams := []int{2, 3, 4}
	if cfg.Quick {
		n, d = 256, 32
		delays = []int64{0, 256}
		teams = []int{2, 3}
	}
	g, sa, sb, err := plantedWorkload(n, d, 1)
	if err != nil {
		return nil, err
	}
	maxRounds := int64(n) * 64
	tb := &Table{
		ID: "S1", Title: "Scenario layer: delayed wake-up and k-agent gathering",
		Claim:   "sleeping agents stay meetable, so wake delay τ costs at most O(τ) rounds; extra agents only speed up the first pairwise meeting",
		Columns: []string{"algorithm", "k", "τ", "meet", "median rounds", "success"},
	}

	var base float64
	for _, tau := range delays {
		sc := &sim.Scenario{Starts: []graph.Vertex{sa, sb}, WakeDelays: []int64{0, tau}}
		out, err := runScenario(cfg, cfg.Seeds, 1, g, sc, "whiteboard", g.MinDegree(), maxRounds)
		if err != nil {
			return nil, err
		}
		med := stats.Median(metRounds(out))
		if tau == 0 {
			base = med
		}
		tb.AddRow("whiteboard", 2, tau, "all", med, successRate(out))
	}
	tb.AddNote("τ=0 median is %.0f; a multiplicative blow-up would put the τ=%d median far beyond %.0f+τ", base, delays[len(delays)-1], base)

	var kMed []float64
	for _, k := range teams {
		sc := &sim.Scenario{Starts: teamStarts(g, sa, sb, k), MeetFirstPair: k > 2}
		meet := "all"
		if k > 2 {
			meet = "firstpair"
		}
		out, err := runScenario(cfg, cfg.Seeds, 2, g, sc, "walkpair", g.MinDegree(), maxRounds)
		if err != nil {
			return nil, err
		}
		med := stats.Median(metRounds(out))
		kMed = append(kMed, med)
		tb.AddRow("walkpair", k, 0, meet, med, successRate(out))
	}
	if len(kMed) >= 2 {
		tb.AddNote("first-meeting median %.0f at k=%d vs %.0f at k=2 — more walkers, more colliding pairs", kMed[len(kMed)-1], teams[len(teams)-1], kMed[0])
	}
	return tb, nil
}

// runScenario is runAlgo for an explicit scenario batch.
func runScenario(cfg Config, trials int, batchSeed uint64, g *graph.Graph, sc *sim.Scenario, name string, delta int, maxRounds int64) ([]engine.Outcome, error) {
	return engine.RunOutcomes(context.Background(), engine.Batch{
		Graph:      g,
		Scenario:   sc,
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

// teamStarts extends the workload's adjacent start pair to k distinct
// non-isolated vertices, scanning deterministically from sb's
// neighborhood outward so every config sees the same team placement.
func teamStarts(g *graph.Graph, sa, sb graph.Vertex, k int) []graph.Vertex {
	starts := []graph.Vertex{sa, sb}
	used := map[graph.Vertex]bool{sa: true, sb: true}
	for v := graph.Vertex(0); len(starts) < k && int(v) < g.N(); v++ {
		if !used[v] && g.Degree(v) > 0 {
			starts = append(starts, v)
			used[v] = true
		}
	}
	if len(starts) < k {
		panic(fmt.Sprintf("harness: graph has fewer than %d non-isolated vertices", k))
	}
	return starts
}

// successRate is the met fraction of a batch's outcomes.
func successRate(outcomes []engine.Outcome) float64 {
	met := 0
	for _, o := range outcomes {
		if o.Met {
			met++
		}
	}
	return float64(met) / float64(len(outcomes))
}
