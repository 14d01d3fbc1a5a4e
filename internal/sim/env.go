package sim

import (
	"fmt"
	"math/rand/v2"
)

// Program is an agent algorithm written in direct style against an Env.
// It runs on a coroutine hosted by NewProgramStepper (Run wraps each
// program in one); every Env movement call costs exactly one simulated
// round and suspends the program until the runtime advances. Returning
// from the program halts the agent at its current vertex (equivalent
// to Halt).
type Program func(e *Env)

// Env is an agent's handle onto the simulation: its view of the current
// vertex and the actions it may take. An Env is only valid inside the
// Program it was passed to and must not be shared across goroutines.
type Env struct {
	name    AgentName
	nPrime  int64
	kt1     bool
	boards  bool
	rng     *rand.Rand
	scratch *AgentScratch
	host    *pullProgramStepper // the coroutine running this program
	staged  bool                // staged whiteboard write
	stagedV int64               // value of the staged write
	// nbuf holds the current round's neighbor IDs once NeighborIDs
	// has copied them out of the view; nfilled says it is current.
	nbuf    []int64
	nfilled bool
}

// control-flow sentinels for unwinding agent coroutines.
type ctrlSignal uint8

const (
	haltSignal ctrlSignal = iota // program called Halt
	stopSignal                   // runtime shut down under the program
)

// Name returns which agent this program is running as.
func (e *Env) Name() AgentName { return e.name }

// NPrime returns the ID-space bound n' known to agents (paper §2.1).
func (e *Env) NPrime() int64 { return e.nPrime }

// Rand returns the agent's private deterministic random stream.
func (e *Env) Rand() *rand.Rand { return e.rng }

// Scratch returns the agent's reusable scratch slot on the driving
// trial context, or nil when the runtime offers no cross-trial reuse.
// See AgentScratch for the contract.
func (e *Env) Scratch() *AgentScratch { return e.scratch }

// HasNeighborIDs reports whether the run grants access to neighborhood
// IDs (the KT1-style assumption).
func (e *Env) HasNeighborIDs() bool { return e.kt1 }

// HasWhiteboards reports whether the run provides whiteboards.
func (e *Env) HasWhiteboards() bool { return e.boards }

// Round returns the current round number.
func (e *Env) Round() int64 { return e.view().Round }

// HereID returns the ID of the agent's current vertex.
func (e *Env) HereID() int64 { return e.view().HereID }

// Degree returns the degree of the current vertex.
func (e *Env) Degree() int { return e.view().Degree }

// NeighborIDs returns the IDs of the current vertex's neighbors in
// local port order, or nil in KT0 mode. The slice is a per-Env buffer,
// filled from the view on the first call of each acting round: it is
// valid only until the agent's next move or stay, after which the next
// call overwrites it; copy it to retain it.
func (e *Env) NeighborIDs() []int64 {
	if !e.kt1 {
		return nil
	}
	if !e.nfilled {
		e.nbuf = e.view().AppendNeighborIDs(e.nbuf[:0])
		e.nfilled = true
	}
	return e.nbuf
}

// Whiteboard returns the whiteboard content of the current vertex as of
// the beginning of the round (NoMark if empty or disabled).
func (e *Env) Whiteboard() int64 { return e.view().Whiteboard }

// WriteWhiteboard stages a write of v to the current vertex's
// whiteboard; it commits together with the agent's next action this
// round, matching the formal model where the algorithm's output is
// (state, move, whiteboard content). It returns an error if the run has
// no whiteboards.
func (e *Env) WriteWhiteboard(v int64) error {
	if !e.boards {
		return fmt.Errorf("sim: agent %s wrote a whiteboard in a whiteboard-free run", e.name)
	}
	e.staged = true
	e.stagedV = v
	return nil
}

// Stay spends one round at the current vertex.
func (e *Env) Stay() { e.StayFor(1) }

// StayFor spends k rounds at the current vertex. k ≤ 0 is a no-op. The
// runtime fast-forwards overlapping waits, so large k is cheap.
func (e *Env) StayFor(k int64) {
	if k <= 0 {
		return
	}
	e.step(StayFor(k))
}

// WaitUntilRound stays until the global round counter reaches r (a
// no-op if r is not in the future). Used for the paper's barrier
// synchronization in Rendezvous-without-Whiteboards.
func (e *Env) WaitUntilRound(r int64) {
	now := e.view().Round
	if r > now {
		e.StayFor(r - now)
	}
}

// MoveToPort crosses the edge behind local port p (one round).
func (e *Env) MoveToPort(p int) error {
	if p < 0 || p >= e.view().Degree {
		return fmt.Errorf("sim: agent %s moving through port %d of a degree-%d vertex", e.name, p, e.view().Degree)
	}
	e.step(Move(p))
	return nil
}

// MoveToID crosses the edge to the neighbor with the given ID (one
// round). It requires neighbor-ID access and adjacency; otherwise it
// returns an error and the agent does not move.
func (e *Env) MoveToID(id int64) error {
	if !e.kt1 {
		return fmt.Errorf("sim: agent %s used MoveToID without neighbor-ID access", e.name)
	}
	if p, ok := e.view().PortOfID(id); ok {
		e.step(Move(p))
		return nil
	}
	return fmt.Errorf("sim: agent %s at vertex %d has no neighbor with ID %d", e.name, e.view().HereID, id)
}

// Halt stops the agent at its current vertex permanently. It does not
// return.
func (e *Env) Halt() {
	panic(haltSignal)
}

// view returns the current round's observation.
func (e *Env) view() *View { return e.host.cur }

// step submits an action (attaching any staged whiteboard write) and
// suspends the program until its next acting round.
func (e *Env) step(act Action) {
	if e.staged {
		act = act.WithWrite(e.stagedV)
		e.staged = false
	}
	e.nfilled = false
	if !e.host.yieldFn(act) {
		panic(stopSignal)
	}
}
