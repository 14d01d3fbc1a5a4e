package core

import (
	"fmt"
	"math/rand/v2"

	"fnr/internal/sim"
)

// Agent b of both paper algorithms as sim.Stepper state machines:
// Theorem 1's oblivious marker and Algorithm 4's interval sweeper.
// Like the agent-a machine they are the only production form; the
// Program forms in the package's tests are the reference they match
// action for action and draw for draw.

// bScratch is the reusable agent-b buffer set parked on the trial
// context's scratch slot: the closed neighborhood N+(start), the
// whiteboard marker's return ports by np position, and (for
// Algorithm 4) the Φ^b sample. Reuse is representation-only, exactly
// like walkerScratch.
type bScratch struct {
	np  []int64
	ret sim.HomePorts
	phi []int64
}

// bScratchFor finds (or creates) the agent-b scratch on slot; a nil
// slot yields a fresh one (no reuse, identical behavior).
func bScratchFor(slot *sim.AgentScratch) *bScratch {
	if slot == nil {
		return &bScratch{}
	}
	sc, _ := slot.Get().(*bScratch)
	if sc == nil {
		sc = &bScratch{}
		slot.Set(sc)
	}
	return sc
}

// errNotAdjacentB reports a move to an ID not visible as a neighbor.
func errNotAdjacentB(v *sim.View, id int64) error {
	return fmt.Errorf("core: agent b at vertex %d has no visible neighbor with ID %d", v.HereID, id)
}

// whiteboardBStepper is Theorem 1's agent b: repeatedly pick u
// uniformly from N+(start), visit it, write the start vertex's ID on
// its whiteboard, and return. It needs no knowledge of n or δ.
type whiteboardBStepper struct {
	rng    *rand.Rand
	boards bool
	slot   *sim.AgentScratch
	stamp  uint64
	home   int64
	np     []int64
	ret    *sim.HomePorts
	away   int // np position of the marked neighbor, heading home next (0 = at home)
}

func (s *whiteboardBStepper) Init(ctx *sim.StepContext) {
	s.rng = ctx.Rand
	s.boards = ctx.Whiteboards
	s.slot = ctx.Scratch
	s.stamp = ctx.GraphStamp
}

// Reset re-arms the machine for another trial (the lane reuse
// contract). np == nil re-triggers the first-round neighborhood
// snapshot, which reuses the bScratch parked on the context's slot —
// the same state a freshly built stepper starts from.
func (s *whiteboardBStepper) Reset(ctx *sim.StepContext) {
	*s = whiteboardBStepper{}
	s.Init(ctx)
}

func (s *whiteboardBStepper) Next(v *sim.View) sim.Action {
	if s.np == nil {
		s.home = v.HereID
		sc := bScratchFor(s.slot)
		sc.np = v.AppendNeighborIDs(append(sc.np[:0], s.home))
		s.np = sc.np
		sc.ret.Arm(s.stamp, s.home, len(sc.np))
		s.ret = &sc.ret
	}
	if s.away > 0 {
		// The mark commits together with the move home (a staged
		// whiteboard write rides on the next action).
		if !s.boards {
			return sim.Abort(fmt.Errorf("core: agent b wrote a whiteboard in a whiteboard-free run"))
		}
		p, ok := s.ret.Port(v, s.away)
		if !ok {
			return sim.Abort(errNotAdjacentB(v, s.home))
		}
		s.away = 0
		return sim.Move(p).WithWrite(s.home)
	}
	// np is home followed by the neighbors in port order, so a drawn
	// index j ≥ 1 is the neighbor behind port j-1 — no ID lookup.
	j := s.rng.IntN(len(s.np))
	if s.np[j] == s.home {
		if !s.boards {
			return sim.Abort(fmt.Errorf("core: agent b wrote a whiteboard in a whiteboard-free run"))
		}
		return sim.Stay().WithWrite(s.home) // commit the write, staying put
	}
	s.away = j
	return sim.Move(j - 1)
}

// nbBPC is the resume point of the native Algorithm-4 agent-b machine.
type nbBPC uint8

const (
	pcBStart nbBPC = iota
	pcBPhaseBegin
	pcBSweepCheck
	pcBSweepMove
	pcBSweepAt
	pcBSweepBack
)

// noboardBStepper is Algorithm 4's agent b: sample Φ^b ⊆ N+(start),
// and in phase i sweep the vertices of Φ^b in the i-th β-interval L
// times, pausing two rounds at the start vertex between sweeps.
type noboardBStepper struct {
	p     *Params // shared with the paired agent-a machine
	delta int
	nst   *NoboardStats

	rng    *rand.Rand
	nPrime int64
	slot   *sim.AgentScratch

	sched noboardSchedule
	home  int64
	phi   []int64

	pc        nbBPC
	phiIdx    int
	phase     int64
	phaseTo   int64
	phaseHi   int64
	group     []int64
	sweepCost int64
	sweep     int64 // completed sweeps this phase (the program's j)
	groupIdx  int
}

func (s *noboardBStepper) Init(ctx *sim.StepContext) {
	s.rng = ctx.Rand
	s.nPrime = ctx.NPrime
	s.slot = ctx.Scratch
}

// Reset re-arms the machine for another trial (the lane reuse
// contract): keep the trial-constant configuration, zero the rest,
// Init anew. pcBStart redoes the schedule/Φ^b setup on the parked
// bScratch.
func (s *noboardBStepper) Reset(ctx *sim.StepContext) {
	*s = noboardBStepper{p: s.p, delta: s.delta, nst: s.nst}
	s.Init(ctx)
}

func (s *noboardBStepper) moveTo(v *sim.View, id int64) sim.Action {
	p, ok := v.PortOfID(id)
	if !ok {
		return sim.Abort(errNotAdjacentB(v, id))
	}
	return sim.Move(p)
}

// endWait emits WaitUntilRound(round) with resume state after; pure
// when the barrier has already passed.
func (s *noboardBStepper) endWait(v *sim.View, round int64, after nbBPC) (sim.Action, bool) {
	s.pc = after
	if round > v.Round {
		return sim.StayFor(round - v.Round), true
	}
	return sim.Action{}, false
}

func (s *noboardBStepper) Next(v *sim.View) sim.Action {
	for {
		switch s.pc {
		case pcBStart: // round 0 at the start vertex
			// Schedule derivation first: a δ < 1 input fails here, at
			// round 0 and before any RNG draw.
			sched, err := newNoboardSchedule(*s.p, s.nPrime, s.delta)
			if err != nil {
				return sim.Abort(err)
			}
			s.sched = sched
			s.home = v.HereID
			sc := bScratchFor(s.slot)
			sc.np = v.AppendNeighborIDs(append(sc.np[:0], s.home))
			sc.phi = sampleSubsetInto(s.rng, sc.phi, sc.np, sched.prob)
			s.phi = sc.phi
			if s.nst != nil {
				s.nst.PhiB = len(s.phi)
			}
			s.phiIdx = 0
			s.phase = 1
			if act, ok := s.endWait(v, sched.tPrime, pcBPhaseBegin); ok {
				return act // the t' start barrier
			}

		case pcBPhaseBegin:
			if s.phase > s.sched.phases {
				return sim.Halt() // all phases done
			}
			s.phaseTo = s.sched.phaseEnd(s.phase)
			s.phaseHi = s.phase * s.sched.beta
			start := s.phiIdx
			for s.phiIdx < len(s.phi) && s.phi[s.phiIdx] < s.phaseHi {
				s.phiIdx++
			}
			s.group = s.phi[start:s.phiIdx]
			if len(s.group) == 0 {
				s.phase++
				if act, ok := s.endWait(v, s.phaseTo, pcBPhaseBegin); ok {
					return act
				}
				continue
			}
			s.sweepCost = 2*int64(len(s.group)) + 2
			s.sweep = 0
			s.pc = pcBSweepCheck

		case pcBSweepCheck: // at home: room for another sweep?
			if s.sweep >= s.sched.residency {
				s.phase++
				if act, ok := s.endWait(v, s.phaseTo, pcBPhaseBegin); ok {
					return act
				}
				continue
			}
			if v.Round+s.sweepCost > s.phaseTo {
				if s.nst != nil {
					s.nst.OverflowPhasesB++
				}
				s.phase++
				if act, ok := s.endWait(v, s.phaseTo, pcBPhaseBegin); ok {
					return act
				}
				continue
			}
			s.groupIdx = 0
			s.pc = pcBSweepMove

		case pcBSweepMove: // at home: next group member (skipping home)
			for s.groupIdx < len(s.group) && s.group[s.groupIdx] == s.home {
				s.groupIdx++
			}
			if s.groupIdx >= len(s.group) {
				s.sweep++
				s.pc = pcBSweepCheck
				return sim.StayFor(2) // the between-sweeps pause
			}
			s.pc = pcBSweepAt
			return s.moveTo(v, s.group[s.groupIdx])

		case pcBSweepAt: // at the swept vertex: bounce straight home
			s.pc = pcBSweepBack
			return s.moveTo(v, s.home)

		case pcBSweepBack: // back home
			s.groupIdx++
			s.pc = pcBSweepMove

		default:
			return sim.Abort(fmt.Errorf("core: native agent b in impossible state %d", s.pc))
		}
	}
}
