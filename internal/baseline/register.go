package baseline

import (
	"fnr/internal/algo"
	"fnr/internal/sim"
)

// The baselines self-register with the strategy registry; importing
// this package (blank imports included) is enough to make them
// resolvable by name. Orders 2–6 preserve the historical
// fnr.Algorithm constant values. Every baseline registers two
// builders over the state machines of steppers.go: BuildSteppers for
// the two-agent run, and BuildTeam — the baselines are all
// oblivious, so the k-agent generalization is agent 0 in the a-role
// and agents 1..k-1 each running an independent copy of the b-role
// (for walkpair, k independent walkers; the roles coincide).
func init() {
	steppers := func(fa, fb func() sim.Stepper) func(algo.BuildOpts) (sim.Stepper, sim.Stepper, error) {
		return func(algo.BuildOpts) (sim.Stepper, sim.Stepper, error) {
			return fa(), fb(), nil
		}
	}
	team := func(fa, fb func() sim.Stepper) func(algo.BuildOpts, int) ([]sim.Stepper, error) {
		return func(_ algo.BuildOpts, k int) ([]sim.Stepper, error) {
			out := make([]sim.Stepper, 0, k)
			out = append(out, fa())
			for i := 1; i < k; i++ {
				out = append(out, fb())
			}
			return out, nil
		}
	}
	algo.Register(algo.Spec{
		Name:          "sweep",
		Order:         2,
		Summary:       "trivial O(∆) baseline: a waits, b sweeps its neighborhood in port order",
		Caps:          algo.Caps{NeighborIDs: true},
		BuildSteppers: steppers(StayerStepper, SweepStepper),
		BuildTeam:     team(StayerStepper, SweepStepper),
	})
	algo.Register(algo.Spec{
		Name:          "dfs",
		Order:         3,
		Summary:       "full-exploration baseline: a waits, b walks a DFS traversal of the graph",
		Caps:          algo.Caps{NeighborIDs: true},
		BuildSteppers: steppers(StayerStepper, DFSStepper),
		BuildTeam:     team(StayerStepper, DFSStepper),
	})
	algo.Register(algo.Spec{
		Name:          "staywalk",
		Order:         4,
		Summary:       "a waits, b random-walks by ports (KT0-capable)",
		BuildSteppers: steppers(StayerStepper, RandomWalkerStepper),
		BuildTeam:     team(StayerStepper, RandomWalkerStepper),
	})
	algo.Register(algo.Spec{
		Name:          "walkpair",
		Order:         5,
		Summary:       "two independent random walkers (KT0-capable)",
		BuildSteppers: steppers(RandomWalkerStepper, RandomWalkerStepper),
		BuildTeam:     team(RandomWalkerStepper, RandomWalkerStepper),
	})
	algo.Register(algo.Spec{
		Name:          "birthday",
		Order:         6,
		Summary:       "complete-graph whiteboard birthday strategy (Anderson–Weber stand-in)",
		Caps:          algo.Caps{NeighborIDs: true, Whiteboards: true},
		BuildSteppers: steppers(BirthdayStepperA, BirthdayStepperB),
		BuildTeam:     team(BirthdayStepperA, BirthdayStepperB),
	})
}
