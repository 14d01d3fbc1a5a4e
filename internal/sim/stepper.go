package sim

import (
	"math/rand/v2"

	"fnr/internal/graph"
)

// Stepper is an agent algorithm in state-machine style: the lockstep
// runtime calls Next once per acting round with the agent's current
// observation and receives the action to perform. Steppers run inline
// on the runtime's goroutine, which makes them the fast path for batch
// trials (see TrialContext.RunSteppers and TrialLane).
//
// A Stepper is built fresh for every run and may keep arbitrary state
// between Next calls. Init is called exactly once, before round 0,
// with the agent's identity and private random stream; Next is never
// called after it returns Halt or Abort, nor while a previous StayFor
// is still elapsing.
//
// Direct-style Programs remain fully supported: NewProgramStepper
// adapts any Program into a Stepper via a lightweight coroutine.
type Stepper interface {
	// Init receives the run-constant context before round 0. The
	// context's fields (including ctx.Rand) are only valid for this
	// run, and the *StepContext itself only during the Init call (the
	// runtime reuses the box across trials): copy the fields out,
	// never retain the pointer.
	Init(ctx *StepContext)
	// Next returns the agent's action for the current acting round.
	// The View is shared with the runtime and valid only until the
	// agent's next acting round; copy what must be retained (for
	// neighbor IDs, with View.AppendNeighborIDs).
	Next(v *View) Action
}

// StepContext carries the run-constant inputs handed to a Stepper's
// Init — the stepper-path counterpart of Env's accessor methods.
type StepContext struct {
	// Name is which agent the stepper is running as.
	Name AgentName
	// NPrime is the ID-space bound n' known to agents (paper §2.1).
	NPrime int64
	// NeighborIDs reports KT1-style neighbor-ID access: when false,
	// the View exposes no neighbor IDs (View.NeighborID panics and
	// View.AppendNeighborIDs appends nothing).
	NeighborIDs bool
	// Whiteboards reports whether the run provides whiteboards; in a
	// whiteboard-free run staged writes are silently dropped, so
	// strategies that depend on boards should Abort when this is
	// false.
	Whiteboards bool
	// Rand is the agent's private deterministic random stream, seeded
	// from (Config.Seed, agent name); a Program sees the same stream
	// through Env.Rand.
	Rand *rand.Rand
	// Scratch is this agent's reusable scratch slot on the trial
	// context driving the run, or nil when the runtime offers no reuse
	// (hand-built contexts in tests). See AgentScratch.
	Scratch *AgentScratch
	// GraphStamp is the run graph's process-unique construction
	// identity (graph.Graph.Stamp), or 0 when unknown (hand-built
	// contexts). Equal non-zero stamps across runs guarantee the same
	// immutable graph, so scratch parked on the slot may carry
	// graph-derived caches between trials keyed on it.
	GraphStamp uint64
}

// AgentScratch is one agent's opaque scratch slot on a TrialContext.
// An algorithm implementation may park reusable per-run state here
// (large lookup tables, counters) and find it again on the next trial
// run by the same worker, turning Θ(n)-per-trial allocations into
// one-time warm-up cost. The simulator never touches the value; like
// every TrialContext buffer it must never influence results — a fresh
// slot and a reused slot have to produce identical runs (the engine's
// differential suite enforces this for the paper's algorithms).
type AgentScratch struct{ v any }

// Get returns the parked value, or nil on a fresh (or absent) slot.
func (s *AgentScratch) Get() any {
	if s == nil {
		return nil
	}
	return s.v
}

// Set parks a value on the slot (a no-op on a nil slot).
func (s *AgentScratch) Set(v any) {
	if s != nil {
		s.v = v
	}
}

// View is the per-round observation handed to an agent: the state of
// its current vertex at the beginning of the round. Under neighbor-ID
// access (the KT1-style assumption) it also reads the IDs of the
// vertex's neighbors in local port order, through the graph's naming
// and without copying: NeighborID reads one port in O(1), and
// AppendNeighborIDs copies the whole list into a caller's buffer. A
// round that reads no IDs costs no O(degree) work.
type View struct {
	// Round is the current round number.
	Round int64
	// HereID is the ID of the agent's current vertex.
	HereID int64
	// Degree is the degree of the current vertex.
	Degree int
	// Whiteboard is the whiteboard content of the current vertex as of
	// the beginning of the round (NoMark if empty or disabled).
	Whiteboard int64

	// g and kt1 (neighbor-ID access) are the run's, set once when the
	// run is armed; each acting round writes only the scalars here,
	// HereID and Degree. Neighbor-ID reads resolve through g on demand.
	g    *graph.Graph
	here graph.Vertex
	kt1  bool
}

// locate points v at vertex here of its run's graph. The runtime calls
// it for every acting round.
func (v *View) locate(here graph.Vertex) {
	v.here = here
	v.HereID = v.g.ID(here)
	v.Degree = v.g.Degree(here)
}

// NeighborID returns the ID of the neighbor behind local port p, in
// O(1) and without copying. It panics unless the run grants
// neighbor-ID access (StepContext.NeighborIDs) and 0 ≤ p < Degree.
func (v *View) NeighborID(p int) int64 {
	if !v.kt1 || uint(p) >= uint(v.Degree) {
		panic("sim: View.NeighborID without neighbor-ID access or outside [0, Degree)")
	}
	return v.g.NeighborID(v.here, p)
}

// AppendNeighborIDs appends the IDs of the current vertex's neighbors,
// in local port order, to dst and returns the extended slice. Without
// neighbor-ID access it returns dst unchanged.
func (v *View) AppendNeighborIDs(dst []int64) []int64 {
	if !v.kt1 {
		return dst
	}
	return v.g.IDsOfNeighbors(v.here, dst)
}

// PortOfID returns the local port leading to the neighbor with the
// given ID, or ok=false if no such neighbor is visible (including all
// KT0 runs).
func (v *View) PortOfID(id int64) (port int, ok bool) {
	if !v.kt1 {
		return -1, false
	}
	if p := v.g.PortOfID(v.here, id); p >= 0 {
		return p, true
	}
	return -1, false
}

// Action is one agent decision for one acting round. Build actions
// with the constructors (Stay, StayFor, Move, Halt, Abort) and attach
// a whiteboard write with WithWrite; the zero value is a 1-round stay.
//
// Action must stay at most four fields and four words. Go's compiler
// keeps a struct in registers (SSA) only within that limit (CanSSA,
// MaxStruct = 4, in cmd/compile/internal/ssa); a larger Action is
// spilled to the stack field by field on every return through the
// stepper chain and reloaded in the runtime's step, and that
// store-to-load stall cost about a third of every paper-algorithm
// round. Hence one word packs the kind with the write flag, one
// argument serves both Move and StayFor, and the rare abort error sits
// behind a pointer. TestActionFitsInRegisters pins the shape.
type Action struct {
	op       actionOp // kind (actKindMask bits) | actWrite
	arg      int64    // actMove: the port; actStay: rounds to spend staying
	writeVal int64    // the staged whiteboard value when op has actWrite
	err      *error   // actPanic: the run's error, boxed to keep one word
}

type actionOp uint64

const (
	actStay actionOp = iota
	actMove
	actHalt
	actPanic

	actKindMask actionOp = 3
	actWrite    actionOp = 4 // commit a whiteboard write at the current vertex
)

// Stay spends one round at the current vertex.
func Stay() Action { return Action{op: actStay, arg: 1} }

// StayFor spends k rounds at the current vertex (k < 1 is clamped to
// 1: unlike Env.StayFor, a Stepper cannot act without consuming a
// round). The runtime fast-forwards overlapping waits, so large k is
// cheap.
func StayFor(k int64) Action {
	if k < 1 {
		k = 1
	}
	return Action{op: actStay, arg: k}
}

// Move crosses the edge behind local port p (one round). An
// out-of-range port aborts the run with an error, matching a Program
// panic.
func Move(p int) Action { return Action{op: actMove, arg: int64(p)} }

// Halt stops the agent at its current vertex permanently.
func Halt() Action { return Action{op: actHalt} }

// Abort fails the whole run with err — the stepper counterpart of a
// Program panic, for states an algorithm considers impossible. An
// abort ends the run, so its one allocation is off the hot path.
func Abort(err error) Action { return Action{op: actPanic, err: &err} }

// WithWrite stages a whiteboard write of val to the agent's current
// vertex; it commits together with the action in the same round,
// matching the formal model where the algorithm's output is (state,
// move, whiteboard content). Writes in whiteboard-free runs are
// dropped.
func (a Action) WithWrite(val int64) Action {
	a.op |= actWrite
	a.writeVal = val
	return a
}

// Reusable is the optional stepper-reuse extension the lane scheduler
// (TrialLane) amortizes builder calls with: Reset(ctx) must leave the
// stepper in exactly the state a freshly built stepper is in after
// Init(ctx) — callable from any prior state, including mid-run
// abandonment and aborts. Implementations may keep grown buffers
// (capacity reuse must never influence results — the same contract as
// AgentScratch). When any stepper of a team does not implement
// Reusable, the lane rebuilds (and Finishes) the whole team for every
// trial, which is always correct, just slower. The native paper
// steppers and all five baselines implement it.
type Reusable interface {
	Reset(ctx *StepContext)
}

// Finisher is the optional stepper-lifecycle extension: a Stepper
// that owns execution resources (a coroutine, an open handle)
// implements Finish to release them. The runtime guarantees
// Finish is called exactly once per RunSteppers/Run invocation, on
// every exit path — normal completion, MaxRounds exhaustion, the peer
// halting, an abort, and even configuration-validation failure before
// round 0. Finish must be idempotent and safe to call before Init.
// The Program host implements it to unwind its iter.Pull coroutine;
// native steppers normally have nothing to release and simply don't
// implement it.
type Finisher interface{ Finish() }

// Finish releases s's execution resources if it implements Finisher —
// the hook callers (the batch engine, benchmarks) use to honor the
// stepper lifecycle for steppers that never reach a run, e.g. after a
// mid-batch builder error. Safe on nil.
func Finish(s Stepper) {
	if f, ok := s.(Finisher); ok {
		f.Finish()
	}
}

// TrialContext owns the per-trial scratch of the stepper fast path —
// the whiteboard array, every agent's PCG state, and one opaque
// AgentScratch slot per agent for algorithm-side reuse — so that a
// worker running many trials in sequence allocates (almost) nothing
// per trial. The per-agent buffers grow on demand to the largest team
// the context has run (ensureAgents) and then stay warm, so k-agent
// scenarios are as allocation-free per trial as the two-agent
// default. A TrialContext is not safe for concurrent use; give each
// worker goroutine its own.
type TrialContext struct {
	boards  []int64
	written []graph.Vertex // vertices whose board left NoMark since the last re-arm
	pcg     []*rand.PCG
	rand    []*rand.Rand
	scratch []AgentScratch // per-agent algorithm scratch (see AgentScratch)
	agents  []agentState   // backing for runtime.agents
	teamBuf []Stepper      // reusable team slice for the pair-shaped entry points
	// rt is the reusable lockstep engine and stepCtx the per-agent
	// Init contexts: runTeam resets both wholesale at the start of
	// every run, so the per-trial runtime state costs no allocation on
	// a warm context (StepContext escapes through the Stepper
	// interface and would otherwise be a per-trial heap box).
	rt      runtime
	stepCtx []StepContext
}

// NewTrialContext returns an empty reusable trial context, pre-sized
// for the default two-agent team.
func NewTrialContext() *TrialContext {
	tc := &TrialContext{}
	tc.ensureAgents(2)
	return tc
}

// ensureAgents grows the per-agent buffers to hold k agents,
// preserving existing contents (parked AgentScratch values survive
// growth). Growth happens at arm time only, so pointers handed to
// steppers stay valid for the duration of their run.
func (tc *TrialContext) ensureAgents(k int) {
	for len(tc.pcg) < k {
		p := rand.NewPCG(0, 0)
		tc.pcg = append(tc.pcg, p)
		tc.rand = append(tc.rand, rand.New(p))
	}
	for len(tc.scratch) < k {
		tc.scratch = append(tc.scratch, AgentScratch{})
	}
	for len(tc.stepCtx) < k {
		tc.stepCtx = append(tc.stepCtx, StepContext{})
	}
	for len(tc.agents) < k {
		tc.agents = append(tc.agents, agentState{})
	}
}

// boardsFor returns the whiteboard array reset to n empty boards,
// reusing the previous trial's capacity. Only the boards listed in
// tc.written can hold a mark, so a re-arm on the same n resets just
// those — O(boards written), not O(n); a fresh context or a changed
// n fills the whole array.
func (tc *TrialContext) boardsFor(n int) []int64 {
	if len(tc.boards) == n {
		for _, v := range tc.written {
			tc.boards[v] = NoMark
		}
	} else {
		if cap(tc.boards) < n {
			tc.boards = make([]int64, n)
		}
		tc.boards = tc.boards[:n]
		for i := range tc.boards {
			tc.boards[i] = NoMark
		}
	}
	tc.written = tc.written[:0]
	return tc.boards
}

// randFor reseeds and returns agent i's reusable random stream.
// rand.Rand is a stateless wrapper around its Source, so reseeding
// the PCG in place reproduces rand.New(rand.NewPCG(seed, stream))
// draw for draw.
func (tc *TrialContext) randFor(i int, seed, stream uint64) *rand.Rand {
	tc.pcg[i].Seed(seed, stream)
	return tc.rand[i]
}

// RunSteppers executes two stepper agents on cfg's graph until
// rendezvous, both agents halting, or the round budget expiring —
// the stepper counterpart of Run, reusing tc's scratch. It
// returns an error for invalid configurations or if a stepper aborts.
func (tc *TrialContext) RunSteppers(cfg Config, a, b Stepper) (*Result, error) {
	tc.teamBuf = append(tc.teamBuf[:0], a, b)
	return runTeam(cfg, tc, tc.teamBuf)
}

// RunSteppers executes two stepper agents with fresh scratch. Callers
// running many trials should hold a TrialContext and use its
// RunSteppers method instead.
func RunSteppers(cfg Config, a, b Stepper) (*Result, error) {
	return NewTrialContext().RunSteppers(cfg, a, b)
}

// RunTeam executes a team of stepper agents — one per scenario agent,
// in team order — reusing tc's scratch. cfg.Scenario sizes the team
// (a nil scenario means the two-agent default, so len(team) must be
// 2). Semantics otherwise match RunSteppers.
func (tc *TrialContext) RunTeam(cfg Config, team []Stepper) (*Result, error) {
	return runTeam(cfg, tc, team)
}

// RunTeam executes a team of stepper agents with fresh scratch.
// Callers running many trials should hold a TrialContext and use its
// RunTeam method instead.
func RunTeam(cfg Config, team []Stepper) (*Result, error) {
	return runTeam(cfg, NewTrialContext(), team)
}
