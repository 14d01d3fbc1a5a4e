// Package paper registers the source paper's two algorithms with the
// strategy registry. It lives beside the registry rather than inside
// internal/core because core is a dependency of algo (for Params and
// the stats types) and cannot import it back; blank-importing this
// package is what puts "whiteboard" and "noboard" on the menu:
//
//	import _ "fnr/internal/algo/paper"
//
// Both algorithms register their state-machine steppers
// (core.WhiteboardSteppers and core.NoboardSteppers), the one form
// single runs and batches execute. Their direct-style Program
// references live in internal/core's tests, held to the steppers
// action for action, RNG draw for draw and stat for stat.
package paper

import (
	"fnr/internal/algo"
	"fnr/internal/core"
	"fnr/internal/sim"
)

func init() {
	algo.Register(algo.Spec{
		Name:    "whiteboard",
		Order:   0,
		Summary: "Theorem 1: Construct + Main-Rendezvous, O(n/δ·log²n + √(n∆/δ)·log n) w.h.p.; needs whiteboards and neighbor IDs",
		Caps:    algo.Caps{NeighborIDs: true, Whiteboards: true},
		BuildSteppers: func(o algo.BuildOpts) (a, b sim.Stepper, err error) {
			// Delta ≤ 0 falls back to the §4.1 doubling estimation.
			know := core.Knowledge{Delta: o.Delta, Doubling: o.Delta <= 0}
			a, b = core.WhiteboardSteppers(o.Params, know, o.WhiteboardStats)
			return a, b, nil
		},
	})
	algo.Register(algo.Spec{
		Name:    "noboard",
		Order:   1,
		Summary: "Theorem 2: whiteboard-free rendezvous, O(n/√δ·log²n) w.h.p.; needs neighbor IDs, tight naming and known δ",
		Caps:    algo.Caps{NeighborIDs: true, NeedsDelta: true},
		BuildSteppers: func(o algo.BuildOpts) (a, b sim.Stepper, err error) {
			a, b = core.NoboardSteppers(o.Params, o.Delta, o.NoboardStats)
			return a, b, nil
		},
	})
}
