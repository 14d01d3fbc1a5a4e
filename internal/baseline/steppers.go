// Package baseline implements the reference strategies the paper's
// algorithms are measured against, as sim.Stepper state machines:
//
//   - sweep (StayerStepper + SweepStepper): the trivial O(∆)
//     neighborhood sweep the paper's introduction cites as the
//     baseline to beat,
//   - dfs (StayerStepper + DFSStepper): rendezvous by full graph
//     exploration (the "existentially optimal" O(n) strategy of §1.1),
//   - staywalk and walkpair (RandomWalkerStepper): random-walk
//     rendezvous (meeting time), usable in the KT0 model because they
//     navigate by ports,
//   - birthday (BirthdayStepperA + BirthdayStepperB): the whiteboard
//     birthday-paradox strategy for complete graphs standing in for
//     Anderson–Weber [6], which the paper generalizes.
//
// Direct-style Program forms of the same strategies live in the
// package's tests as the reference the steppers are checked against.
package baseline

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"fnr/internal/sim"
)

// errNotAdjacent reports an impossible move to a non-neighbor ID: the
// run errors out rather than silently diverging.
func errNotAdjacent(v *sim.View, id int64) error {
	return fmt.Errorf("baseline stepper at vertex %d has no neighbor with ID %d", v.HereID, id)
}

// StayerStepper returns an agent that waits at its start vertex
// forever in fast-forwardable bulk stays.
func StayerStepper() sim.Stepper { return stayerStepper{} }

type stayerStepper struct{}

func (stayerStepper) Init(*sim.StepContext) {}

func (stayerStepper) Reset(*sim.StepContext) {}

func (stayerStepper) Next(*sim.View) sim.Action { return sim.StayFor(1 << 30) }

// SweepStepper returns the sweep baseline's agent b: it visits each
// neighbor of its start vertex in port order, returning home between
// visits, then halts. Paired with StayerStepper, b reaches a within
// 2·deg(b) rounds when the agents start adjacent. It needs neighbor-ID
// access for the return trips.
func SweepStepper() sim.Stepper { return &sweepStepper{} }

type sweepStepper struct {
	stamp     uint64
	started   bool
	home      int64
	nbs       []int64
	ret       sim.HomePorts // ports back home, by sweep index
	i         int
	returning bool
}

func (s *sweepStepper) Init(ctx *sim.StepContext) { s.stamp = ctx.GraphStamp }

// Reset re-arms the sweep for another trial, keeping the grown
// neighbor buffer and the return-port cache (lane reuse contract).
func (s *sweepStepper) Reset(ctx *sim.StepContext) {
	*s = sweepStepper{nbs: s.nbs[:0], ret: s.ret}
	s.Init(ctx)
}

func (s *sweepStepper) Next(v *sim.View) sim.Action {
	if !s.started {
		s.started = true
		s.home = v.HereID
		s.nbs = v.AppendNeighborIDs(s.nbs)
		s.ret.Arm(s.stamp, s.home, len(s.nbs))
	}
	if s.i >= len(s.nbs) {
		// Distance was not 1 after all; nothing left to try.
		return sim.Halt()
	}
	if !s.returning {
		// nbs is home's neighbor list in port order, so sweep target i
		// sits behind port i.
		s.returning = true
		return sim.Move(s.i)
	}
	p, ok := s.ret.Port(v, s.i)
	if !ok {
		return sim.Abort(errNotAdjacent(v, s.home))
	}
	s.returning = false
	s.i++
	return sim.Move(p)
}

// RandomWalkerStepper returns an endless uniform random walk by local
// ports (KT0-capable).
func RandomWalkerStepper() sim.Stepper { return &randomWalkerStepper{} }

type randomWalkerStepper struct {
	rng *rand.Rand
}

func (s *randomWalkerStepper) Init(ctx *sim.StepContext) { s.rng = ctx.Rand }

func (s *randomWalkerStepper) Reset(ctx *sim.StepContext) { s.rng = ctx.Rand }

func (s *randomWalkerStepper) Next(v *sim.View) sim.Action {
	if v.Degree == 0 {
		return sim.Stay()
	}
	return sim.Move(s.rng.IntN(v.Degree))
}

// DFSStepper returns a depth-first traversal of the graph by neighbor
// IDs, halting when every reachable vertex has been visited (within
// 2(n−1) moves). It is oblivious to the initial distance.
func DFSStepper() sim.Stepper { return &dfsStepper{} }

type dfsStepper struct {
	started bool
	visited map[int64]bool
	path    []int64 // vertex IDs from the root to the parent of the current vertex
}

func (s *dfsStepper) Init(*sim.StepContext) {}

// Reset re-arms the traversal for another trial, keeping the visited
// map's buckets and the path's capacity (lane reuse contract).
func (s *dfsStepper) Reset(*sim.StepContext) {
	s.started = false
	clear(s.visited)
	s.path = s.path[:0]
}

func (s *dfsStepper) Next(v *sim.View) sim.Action {
	if !s.started {
		s.started = true
		if s.visited == nil {
			s.visited = make(map[int64]bool)
		}
		s.visited[v.HereID] = true
	}
	for p := range v.Degree {
		if u := v.NeighborID(p); !s.visited[u] {
			// Neighbor IDs are read in port order, so the first
			// unvisited neighbor's index is its port.
			s.visited[u] = true
			s.path = append(s.path, v.HereID)
			return sim.Move(p)
		}
	}
	if len(s.path) == 0 {
		return sim.Halt() // traversal complete
	}
	parent := s.path[len(s.path)-1]
	s.path = s.path[:len(s.path)-1]
	p, ok := v.PortOfID(parent)
	if !ok {
		return sim.Abort(errNotAdjacent(v, parent))
	}
	return sim.Move(p)
}

// BirthdayStepperA returns the birthday strategy's agent a: repeatedly
// probe a uniform closed neighbor for a mark and, on finding one, move
// to b's start vertex and wait. Home draws cost no round (zero-round
// retries). On K_n both closed neighborhoods are V, giving the
// O(√n)-expected-round birthday bound the paper cites. It needs
// whiteboards and neighbor-ID access.
func BirthdayStepperA() sim.Stepper { return &birthdayStepperA{} }

type birthdayStepperA struct {
	rng     *rand.Rand
	boards  bool
	started bool
	home    int64
	np      []int64
	state   birthdayAState
	mark    int64 // whiteboard value read at the probed vertex
}

type birthdayAState uint8

const (
	birthdayAChoose birthdayAState = iota // at home, pick the next probe
	birthdayAProbe                        // arrived at the probed neighbor
	birthdayACheck                        // back home, act on the mark read remotely
	birthdayAWait                         // co-located with b's start; wait forever
)

func (s *birthdayStepperA) Init(ctx *sim.StepContext) {
	s.rng = ctx.Rand
	s.boards = ctx.Whiteboards
}

// Reset re-arms the machine for another trial, keeping the grown
// closed-neighborhood buffer (lane reuse contract).
func (s *birthdayStepperA) Reset(ctx *sim.StepContext) {
	*s = birthdayStepperA{np: s.np[:0]}
	s.Init(ctx)
}

func (s *birthdayStepperA) Next(v *sim.View) sim.Action {
	if !s.started {
		if !s.boards {
			return sim.Abort(errors.New("birthday strategy in a whiteboard-free run"))
		}
		s.started = true
		s.home = v.HereID
		s.np = v.AppendNeighborIDs(append(s.np[:0], s.home))
	}
	switch s.state {
	case birthdayAProbe:
		// Read the mark here, then head home; the decision happens on
		// arrival (birthdayACheck).
		s.mark = v.Whiteboard
		p, ok := v.PortOfID(s.home)
		if !ok {
			return sim.Abort(errNotAdjacent(v, s.home))
		}
		s.state = birthdayACheck
		return sim.Move(p)
	case birthdayAWait:
		return sim.Stay()
	case birthdayACheck:
		if s.mark != sim.NoMark && s.mark != s.home {
			if p, ok := v.PortOfID(s.mark); ok {
				s.state = birthdayAWait
				return sim.Move(p)
			}
			// Mark not adjacent; not ours to chase.
		}
		s.state = birthdayAChoose
	}
	// birthdayAChoose: draw closed neighbors until one costs a round
	// (home draws that read an unchaseable mark consume no rounds). np is home
	// followed by the neighbors in port order, so a drawn index j ≥ 1
	// is the neighbor behind port j-1 — no ID lookup.
	for {
		j := s.rng.IntN(len(s.np))
		if pick := s.np[j]; pick != s.home {
			s.state = birthdayAProbe
			return sim.Move(j - 1)
		}
		mark := v.Whiteboard
		if mark == sim.NoMark || mark == s.home {
			continue
		}
		if p, ok := v.PortOfID(mark); ok {
			s.state = birthdayAWait
			return sim.Move(p)
		}
	}
}

// BirthdayStepperB returns the birthday strategy's agent b: repeatedly
// mark a uniform closed neighbor with its start ID.
func BirthdayStepperB() sim.Stepper { return &birthdayStepperB{} }

type birthdayStepperB struct {
	rng     *rand.Rand
	boards  bool
	started bool
	home    int64
	np      []int64
	away    bool // at the marked neighbor, heading home next
}

func (s *birthdayStepperB) Init(ctx *sim.StepContext) {
	s.rng = ctx.Rand
	s.boards = ctx.Whiteboards
}

// Reset re-arms the machine for another trial, keeping the grown
// closed-neighborhood buffer (lane reuse contract).
func (s *birthdayStepperB) Reset(ctx *sim.StepContext) {
	*s = birthdayStepperB{np: s.np[:0]}
	s.Init(ctx)
}

func (s *birthdayStepperB) Next(v *sim.View) sim.Action {
	if !s.started {
		if !s.boards {
			return sim.Abort(errors.New("birthday strategy in a whiteboard-free run"))
		}
		s.started = true
		s.home = v.HereID
		s.np = v.AppendNeighborIDs(append(s.np[:0], s.home))
	}
	if s.away {
		// The mark commits together with the move home (a staged
		// whiteboard write rides on the next action).
		p, ok := v.PortOfID(s.home)
		if !ok {
			return sim.Abort(errNotAdjacent(v, s.home))
		}
		s.away = false
		return sim.Move(p).WithWrite(s.home)
	}
	// np is home followed by the neighbors in port order: index j ≥ 1
	// is the neighbor behind port j-1.
	j := s.rng.IntN(len(s.np))
	if s.np[j] == s.home {
		return sim.Stay().WithWrite(s.home)
	}
	s.away = true
	return sim.Move(j - 1)
}
