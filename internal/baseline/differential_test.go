package baseline

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"fnr/internal/algo"
	"fnr/internal/graph"
	"fnr/internal/sim"
)

// The baseline differential suite: for every baseline, across a seed ×
// instance matrix, the registered steppers must reproduce the Program
// reference of programs_test.go in the full simulation Result — same
// meeting round and vertex, same per-agent moves, stays and halts,
// same whiteboard writes. The programs run on sim.NewProgramStepper,
// the one Program host, under the capabilities the spec declares.
func TestSteppersMatchProgramsExactly(t *testing.T) {
	planted, err := graph.PlantedMinDegree(96, 24, rand.New(rand.NewPCG(5, 6)))
	if err != nil {
		t.Fatal(err)
	}
	complete, err := graph.Complete(16)
	if err != nil {
		t.Fatal(err)
	}
	programs := map[string]func() (sim.Program, sim.Program){
		"sweep":    StayAndSweep,
		"dfs":      StayAndDFS,
		"staywalk": StayAndWalk,
		"walkpair": RandomWalkPair,
		"birthday": BirthdayAgents,
	}
	for name, build := range programs {
		spec, err := algo.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, inst := range []struct {
			name string
			g    *graph.Graph
		}{{"planted96", planted}, {"k16", complete}} {
			sa := graph.Vertex(0)
			sb := inst.g.Adj(sa)[0]
			for seed := uint64(1); seed <= 8; seed++ {
				cfg := sim.Config{
					Graph: inst.g, StartA: sa, StartB: sb,
					NeighborIDs: spec.Caps.NeighborIDs, Whiteboards: spec.Caps.Whiteboards,
					Seed: seed, MaxRounds: 1 << 20,
				}
				pa, pb := build()
				pres, perr := sim.RunSteppers(cfg, sim.NewProgramStepper(pa), sim.NewProgramStepper(pb))
				na, nb, err := spec.Steppers(algo.BuildOpts{})
				if err != nil {
					t.Fatal(err)
				}
				nres, nerr := sim.RunSteppers(cfg, na, nb)
				if perr != nil || nerr != nil {
					t.Fatalf("%s/%s/seed%d: program err %v, stepper err %v", name, inst.name, seed, perr, nerr)
				}
				if !reflect.DeepEqual(pres, nres) {
					t.Errorf("%s/%s/seed%d: results differ:\nprogram: %+v\nstepper: %+v", name, inst.name, seed, pres, nres)
				}
			}
		}
	}
}
