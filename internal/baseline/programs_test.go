package baseline

import (
	"fnr/internal/sim"
)

// This file is the Program oracle of the baselines: each strategy in
// direct style against sim.Env. Production registers and runs only the
// steppers of steppers.go; TestSteppersMatchProgramsExactly holds each
// stepper to its program here, action for action and RNG draw for
// draw.

// StayAndSweep returns the trivial O(∆) neighborhood-rendezvous pair:
// agent a stays home; agent b visits each neighbor of its start vertex
// in port order, returning home between visits. If the agents start at
// adjacent vertices, b reaches a within 2·deg(b) rounds. Requires
// neighbor-ID access for the return trips.
func StayAndSweep() (a, b sim.Program) {
	a = Stayer()
	b = func(e *sim.Env) {
		home := e.HereID()
		nbs := make([]int64, len(e.NeighborIDs()))
		copy(nbs, e.NeighborIDs())
		for _, u := range nbs {
			if err := e.MoveToID(u); err != nil {
				panic(err)
			}
			if err := e.MoveToID(home); err != nil {
				panic(err)
			}
		}
		// Distance was not 1 after all; nothing left to try.
	}
	return a, b
}

// Stayer returns a program that waits at its start vertex forever.
func Stayer() sim.Program {
	return func(e *sim.Env) {
		for {
			e.StayFor(1 << 30)
		}
	}
}

// RandomWalker returns a program performing an endless uniform random
// walk by local ports. It works in both KT1 and KT0 runs.
func RandomWalker() sim.Program {
	return func(e *sim.Env) {
		for {
			d := e.Degree()
			if d == 0 {
				e.Stay()
				continue
			}
			if err := e.MoveToPort(e.Rand().IntN(d)); err != nil {
				panic(err)
			}
		}
	}
}

// StayAndWalk returns the wait-for-mommy pair: a stays, b random-walks.
func StayAndWalk() (a, b sim.Program) {
	return Stayer(), RandomWalker()
}

// RandomWalkPair returns two independent random walkers.
func RandomWalkPair() (a, b sim.Program) {
	return RandomWalker(), RandomWalker()
}

// StayAndDFS returns the graph-exploration pair: a stays, b explores
// the whole graph depth-first using neighbor IDs, visiting every
// reachable vertex within 2(n−1) moves. This is the §1.1
// exploration-based strategy that is existentially optimal (Θ(n)) but
// oblivious to the initial distance.
func StayAndDFS() (a, b sim.Program) {
	return Stayer(), DFSExplorer()
}

// DFSExplorer returns a program that walks a depth-first traversal of
// the graph (requires neighbor-ID access) and halts when every
// reachable vertex has been visited.
func DFSExplorer() sim.Program {
	return func(e *sim.Env) {
		visited := map[int64]bool{e.HereID(): true}
		var path []int64 // vertex IDs from the root to the parent of the current vertex
		for {
			next := int64(-1)
			for _, u := range e.NeighborIDs() {
				if !visited[u] {
					next = u
					break
				}
			}
			if next >= 0 {
				visited[next] = true
				path = append(path, e.HereID())
				if err := e.MoveToID(next); err != nil {
					panic(err)
				}
				continue
			}
			if len(path) == 0 {
				return // traversal complete
			}
			parent := path[len(path)-1]
			path = path[:len(path)-1]
			if err := e.MoveToID(parent); err != nil {
				panic(err)
			}
		}
	}
}

// BirthdayAgents returns the complete-graph whiteboard strategy that
// stands in for Anderson–Weber [6]: agent b repeatedly marks a uniform
// closed neighbor with its start ID; agent a repeatedly probes a
// uniform closed neighbor and, on finding the mark, moves to b's start
// vertex and waits. On K_n both closed neighborhoods are V, giving the
// O(√n)-expected-round birthday bound the paper cites. Requires
// whiteboards and neighbor-ID access.
func BirthdayAgents() (a, b sim.Program) {
	a = func(e *sim.Env) {
		home := e.HereID()
		np := make([]int64, 0, e.Degree()+1)
		np = append(np, home)
		np = append(np, e.NeighborIDs()...)
		rng := e.Rand()
		for {
			v := np[rng.IntN(len(np))]
			if v != home {
				if err := e.MoveToID(v); err != nil {
					panic(err)
				}
			}
			mark := e.Whiteboard()
			if v != home {
				if err := e.MoveToID(home); err != nil {
					panic(err)
				}
			}
			if mark == sim.NoMark || mark == home {
				continue
			}
			if err := e.MoveToID(mark); err != nil {
				continue // mark not adjacent; not ours to chase
			}
			for {
				e.Stay()
			}
		}
	}
	b = func(e *sim.Env) {
		home := e.HereID()
		np := make([]int64, 0, e.Degree()+1)
		np = append(np, home)
		np = append(np, e.NeighborIDs()...)
		rng := e.Rand()
		for {
			u := np[rng.IntN(len(np))]
			if u == home {
				if err := e.WriteWhiteboard(home); err != nil {
					panic(err)
				}
				e.Stay()
				continue
			}
			if err := e.MoveToID(u); err != nil {
				panic(err)
			}
			if err := e.WriteWhiteboard(home); err != nil {
				panic(err)
			}
			if err := e.MoveToID(home); err != nil {
				panic(err)
			}
		}
	}
	return a, b
}
