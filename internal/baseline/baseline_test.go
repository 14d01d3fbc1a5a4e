package baseline

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"fnr/internal/graph"
	"fnr/internal/sim"
)

// haltStepper is an idle partner that halts at round 0.
type haltStepper struct{}

func (haltStepper) Init(*sim.StepContext)     {}
func (haltStepper) Next(*sim.View) sim.Action { return sim.Halt() }

func TestStayAndSweepMeetsWithinTwoDelta(t *testing.T) {
	cases := []struct {
		name string
		gen  func() (*graph.Graph, error)
	}{
		{"K16", func() (*graph.Graph, error) { return graph.Complete(16) }},
		{"C12", func() (*graph.Graph, error) { return graph.Ring(12) }},
		{"Q5", func() (*graph.Graph, error) { return graph.Hypercube(5) }},
		{"planted", func() (*graph.Graph, error) {
			return graph.PlantedMinDegree(100, 20, rand.New(rand.NewPCG(1, 2)))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := tc.gen()
			if err != nil {
				t.Fatal(err)
			}
			pairs := graph.PairsAtDistance(g, 1, 3)
			for _, pr := range pairs {
				a, b := StayerStepper(), SweepStepper()
				res, err := sim.RunSteppers(sim.Config{
					Graph: g, StartA: pr[0], StartB: pr[1],
					NeighborIDs: true, MaxRounds: int64(4*g.MaxDegree() + 8),
				}, a, b)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Met {
					t.Fatalf("sweep failed from %v", pr)
				}
				if res.MeetRound > int64(2*g.MaxDegree()) {
					t.Fatalf("sweep took %d rounds, want ≤ 2∆ = %d", res.MeetRound, 2*g.MaxDegree())
				}
			}
		})
	}
}

func TestStayAndDFSMeetsAtAnyDistance(t *testing.T) {
	g, err := graph.Grid(6, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []int32{1, 3, 7} {
		pairs := graph.PairsAtDistance(g, d, 1)
		if len(pairs) == 0 {
			t.Fatalf("no pairs at distance %d", d)
		}
		a, b := StayerStepper(), DFSStepper()
		res, err := sim.RunSteppers(sim.Config{
			Graph: g, StartA: pairs[0][0], StartB: pairs[0][1],
			NeighborIDs: true, MaxRounds: int64(4 * g.N()),
		}, a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Met {
			t.Fatalf("DFS failed at distance %d", d)
		}
		if res.MeetRound > int64(2*g.N()) {
			t.Fatalf("DFS took %d rounds, want ≤ 2n = %d", res.MeetRound, 2*g.N())
		}
	}
}

func TestDFSVisitsEverything(t *testing.T) {
	// Track coverage via an observer on a solo run.
	g, err := graph.PlantedMinDegree(60, 6, rand.New(rand.NewPCG(3, 4)))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[graph.Vertex]bool)
	_, err = sim.RunSteppers(sim.Config{
		Graph: g, StartA: 0, StartB: 0,
		NeighborIDs: true, MaxRounds: int64(4 * g.N()), DisableMeeting: true,
		Observer: func(ev sim.RoundEvent) { seen[ev.PosA] = true },
	}, DFSStepper(), haltStepper{})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != g.N() {
		t.Fatalf("DFS visited %d of %d vertices", len(seen), g.N())
	}
}

func TestRandomWalksWorkInKT0(t *testing.T) {
	g, err := graph.Complete(12)
	if err != nil {
		t.Fatal(err)
	}
	a, b := RandomWalkerStepper(), RandomWalkerStepper()
	res, err := sim.RunSteppers(sim.Config{
		Graph: g, StartA: 0, StartB: 5,
		NeighborIDs: false, // KT0: walkers navigate by ports only
		Seed:        11,
	}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Fatal("random walkers never met on K12")
	}
}

func TestStayAndWalkMeets(t *testing.T) {
	g, err := graph.Ring(16)
	if err != nil {
		t.Fatal(err)
	}
	a, b := StayerStepper(), RandomWalkerStepper()
	res, err := sim.RunSteppers(sim.Config{
		Graph: g, StartA: 0, StartB: 1, Seed: 3,
	}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Fatal("walker never hit the stayer")
	}
}

func TestBirthdayOnComplete(t *testing.T) {
	g, err := graph.Complete(64)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 5; seed++ {
		a, b := BirthdayStepperA(), BirthdayStepperB()
		res, err := sim.RunSteppers(sim.Config{
			Graph: g, StartA: 0, StartB: 1,
			NeighborIDs: true, Whiteboards: true, Seed: seed,
			MaxRounds: 1 << 20,
		}, a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Met {
			t.Fatalf("seed %d: birthday strategy failed on K64", seed)
		}
	}
}

// Property: the sweep baseline always meets within 2∆ from any adjacent
// pair on random planted graphs.
func TestSweepProperty(t *testing.T) {
	check := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 17))
		g, err := graph.PlantedMinDegree(40+int(seed%40), 5, rng)
		if err != nil {
			return false
		}
		pairs := graph.PairsAtDistance(g, 1, 1)
		a, b := StayerStepper(), SweepStepper()
		res, err := sim.RunSteppers(sim.Config{
			Graph: g, StartA: pairs[0][0], StartB: pairs[0][1],
			NeighborIDs: true, Seed: seed, MaxRounds: int64(4*g.MaxDegree() + 8),
		}, a, b)
		return err == nil && res.Met && res.MeetRound <= int64(2*g.MaxDegree())
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestRandomWalkerOnIsolatedVertex(t *testing.T) {
	// Degree-0 vertices must not crash the walker; it just waits.
	ids := []int64{0, 1, 2}
	adj := [][]graph.Vertex{{}, {2}, {1}}
	g, err := graph.FromAdjacency(ids, adj, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunSteppers(sim.Config{
		Graph: g, StartA: 0, StartB: 1, MaxRounds: 20,
	}, RandomWalkerStepper(), StayerStepper())
	if err != nil {
		t.Fatal(err)
	}
	if res.Met {
		t.Fatal("isolated walker cannot reach the stayer")
	}
	if res.A.Stays != 20 {
		t.Fatalf("isolated walker stays = %d, want 20", res.A.Stays)
	}
}
