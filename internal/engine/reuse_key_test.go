package engine

import (
	"math/rand/v2"
	"testing"

	"fnr/internal/graph"
	"fnr/internal/sim"
)

// TestReusedScratchAcrossGraphsAndStarts pins the (graph stamp, home)
// key of the graph-derived caches that survive trial re-arms — the
// walker's return ports and Sample overlap memo, whiteboard agent b's
// return ports, the sweep stepper's return ports. One reused
// TrialContext and one reused lane per algorithm run three phases in
// sequence: graph G1, then G2 (same n and same start IDs, different
// edges), then G2 from a second start pair. Every trial must match a
// fresh context, so a cache that outlives its graph or its home shows
// up as a diverging or aborting trial.
func TestReusedScratchAcrossGraphsAndStarts(t *testing.T) {
	const n, d, trials = 96, 24, 6
	g1, err := graph.PlantedMinDegree(n, d, rand.New(rand.NewPCG(5, 6)))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := graph.PlantedMinDegree(n, d, rand.New(rand.NewPCG(7, 8)))
	if err != nil {
		t.Fatal(err)
	}
	// The first pair is adjacent in both graphs, so the homes' IDs
	// repeat across the graph switch and only the stamp tells the
	// caches apart; the second pair shares neither endpoint with it.
	var pairs [][2]graph.Vertex
	for u := graph.Vertex(0); u < n && len(pairs) < 2; u++ {
		for _, v := range g2.Adj(u) {
			if len(pairs) == 0 && g1.HasEdge(u, v) ||
				len(pairs) == 1 && u != pairs[0][0] && u != pairs[0][1] && v != pairs[0][0] && v != pairs[0][1] {
				pairs = append(pairs, [2]graph.Vertex{u, v})
				break
			}
		}
	}
	if len(pairs) < 2 {
		t.Fatal("no start pairs found")
	}
	for _, g := range []*graph.Graph{g1, g2} {
		if g.ID(pairs[0][0]) != int64(pairs[0][0]) || g.ID(pairs[0][1]) != int64(pairs[0][1]) {
			t.Fatal("planted graphs no longer use identity IDs; pick the shared pair by ID")
		}
	}
	phases := []struct {
		name string
		g    *graph.Graph
		pair [2]graph.Vertex
	}{
		{"G1", g1, pairs[0]},
		{"G2", g2, pairs[0]},
		{"G2 second pair", g2, pairs[1]},
	}

	for _, name := range []string{"whiteboard", "noboard", "sweep"} {
		t.Run(name, func(t *testing.T) {
			shared := sim.NewTrialContext()
			var lane *sim.TrialLane
			for _, ph := range phases {
				b := Batch{Graph: ph.g, StartA: ph.pair[0], StartB: ph.pair[1], Algorithm: name,
					Delta: d, Trials: trials, Seed: 11, Workers: 1}
				spec, opts, err := b.prepare()
				if err != nil {
					t.Fatal(err)
				}
				if lane == nil {
					lane = sim.NewTrialLane(func() (sim.Stepper, sim.Stepper, error) { return spec.Steppers(opts) })
					defer lane.Close()
				}
				laneOut := make([]Outcome, trials)
				lane.Run(trialConfig(b, spec, 0), func(i int) uint64 { return TrialSeed(b.Seed, i) }, 0, trials,
					func(i int, res *sim.Result, err error) { laneOut[i] = OutcomeOf(res, err) })
				for i := range trials {
					want := soloTrial(b, spec, opts, sim.NewTrialContext(), i)
					if want.Err {
						t.Fatalf("%s trial %d errored on a fresh context", ph.name, i)
					}
					if got := soloTrial(b, spec, opts, shared, i); got != want {
						t.Errorf("%s trial %d: reused context %+v, fresh %+v", ph.name, i, got, want)
					}
					if laneOut[i] != want {
						t.Errorf("%s trial %d: reused lane %+v, fresh %+v", ph.name, i, laneOut[i], want)
					}
				}
			}
		})
	}
}
