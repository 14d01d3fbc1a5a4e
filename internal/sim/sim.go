// Package sim implements the synchronous mobile-agent execution model
// of the paper "Fast Neighborhood Rendezvous" (§2.1): discrete
// rounds; per round each agent either stays at its current vertex or
// crosses one incident edge; local computation, whiteboard access and
// neighbor-ID inspection are free within a round; rendezvous
// completes at round t when the agents occupy the same vertex at the
// beginning of round t. The paper's setting — two agents waking
// simultaneously — is the default; a Config.Scenario generalizes a
// run to k ≥ 2 agents with per-agent wake delays and an all-gather or
// first-pair meeting predicate (see Scenario).
//
// Agents come in two styles sharing one lockstep loop:
//
//   - Program: ordinary Go functions against an Env handle, each
//     hosted on a lightweight coroutine by NewProgramStepper. Run is
//     the Program-pair entry point.
//   - Stepper: explicit state machines (Next(view) action) that the
//     runtime steps inline, with per-trial scratch reuse via
//     TrialContext. This is the hot path for batch trials.
//
// Multi-round waits are fast-forwarded when neither agent needs to
// act, so wait-heavy algorithms (such as the paper's no-whiteboard
// algorithm) simulate in time proportional to their activity, not to
// their round count.
package sim

import (
	"errors"
	"fmt"
	"math"

	"fnr/internal/graph"
)

// AgentName identifies one agent by team index. The paper calls its
// two agents a and b and allows them to run different algorithms
// (asymmetry); k-agent scenarios number agents 0..k-1 in the same
// scheme.
type AgentName uint8

// The paper's two agents (team indices 0 and 1).
const (
	AgentA AgentName = iota
	AgentB
)

// String returns "a" for agent 0, "b" for agent 1, and so on through
// "z"; agents past index 25 render as "agent26", "agent27", ….
func (n AgentName) String() string {
	if n < 26 {
		return string(rune('a' + n))
	}
	return fmt.Sprintf("agent%d", uint8(n))
}

// NoMark is the whiteboard content ⊥ (empty).
const NoMark int64 = math.MinInt64

// Config describes one simulation run.
type Config struct {
	// Graph is the static environment. Required.
	Graph *graph.Graph
	// StartA and StartB are the agents' initial vertices in the
	// default two-agent setting. Ignored when Scenario is set.
	StartA, StartB graph.Vertex
	// Scenario, if non-nil, replaces the two-agent setting with a
	// k-agent, delayed-wakeup one: per-agent starts and wake delays
	// and the meeting predicate come from the scenario, and
	// StartA/StartB are ignored. Team-shaped entry points (RunTeam)
	// require exactly K() steppers; nil means the legacy pair.
	Scenario *Scenario
	// NeighborIDs enables the KT1-style accessible port numbering:
	// agents see the IDs of their current vertex's neighbors. When
	// false (KT0), ports are bare indices and views carry no IDs.
	NeighborIDs bool
	// Whiteboards enables per-vertex whiteboards. When false, writes
	// are rejected and reads return NoMark — used to certify that the
	// Theorem 2 algorithm never relies on whiteboards.
	Whiteboards bool
	// MaxRounds stops the run if rendezvous has not completed. Zero
	// selects the generous default 4n²+1000 (beyond any exploration
	// bound for the instances we run).
	MaxRounds int64
	// Seed derives both agents' private random streams. Seed 0 is
	// normalized to 1 here, in the simulator, so every entry point
	// (fnr.Rendezvous, the batch engine, direct Run/RunSteppers
	// calls) agrees on what the default-seeded run is.
	Seed uint64
	// DisableMeeting turns off rendezvous detection: agents pass
	// through each other and the run ends only on MaxRounds or both
	// agents halting. This models the paper's single-agent "illegal
	// runs" (the X̂(G, a, v, f(n)) executions of §5) and is used by
	// diagnostic experiments that study one agent in isolation.
	DisableMeeting bool
	// MeetingFromRound suppresses rendezvous detection before the
	// given round. Incidental co-locations while agent a is still
	// building its dense set end real runs early (and count for the
	// upper bounds); the mechanism-isolation experiments set this to
	// the schedule barrier to measure the designed rendezvous phase
	// alone. Zero means detection is on from the start.
	MeetingFromRound int64
	// Observer, if non-nil, is called once per executed round with the
	// positions at the beginning of the round. Fast-forwarded waiting
	// rounds are reported in one call with Skipped > 1.
	Observer func(RoundEvent)
}

// RoundEvent is a point-in-time observation delivered to Config.Observer.
type RoundEvent struct {
	Round   int64
	PosA    graph.Vertex
	PosB    graph.Vertex
	Skipped int64 // number of rounds this event covers (≥ 1)
}

// Result reports the outcome of a run.
type Result struct {
	// Met reports whether the agents occupied the same vertex at the
	// beginning of some round ≤ MaxRounds.
	Met bool
	// MeetRound is the completion round (valid when Met).
	MeetRound int64
	// MeetVertex is the rendezvous vertex (valid when Met).
	MeetVertex graph.Vertex
	// Rounds is the number of rounds executed (equals MeetRound when
	// Met, and MaxRounds or the both-halted round otherwise).
	Rounds int64
	// A and B are the first two agents' statistics — always filled,
	// at every team size.
	A, B AgentStats
	// Agents holds every agent's statistics (including agents 0 and
	// 1) when the run had more than two agents; nil on two-agent
	// runs. Like the Result itself on the lane path, the slice is a
	// reusable per-lane buffer — copy what must be retained.
	Agents []AgentStats
	// Writes counts committed whiteboard writes (all agents).
	Writes int64
}

// TotalMoves sums edge traversals over every agent of the run.
func (r *Result) TotalMoves() int64 {
	if r.Agents == nil {
		return r.A.Moves + r.B.Moves
	}
	var total int64
	for i := range r.Agents {
		total += r.Agents[i].Moves
	}
	return total
}

// AgentStats aggregates one agent's activity.
type AgentStats struct {
	// Moves is the number of edge traversals.
	Moves int64
	// Stays is the number of rounds spent waiting (including
	// fast-forwarded rounds).
	Stays int64
	// Halted reports whether the program returned or called Halt.
	Halted bool
}

// DefaultMaxRounds returns the fallback round budget for g: 4n²+1000.
func DefaultMaxRounds(g *graph.Graph) int64 {
	n := int64(g.N())
	return 4*n*n + 1000
}

// Run executes the two programs on cfg's graph until rendezvous, both
// agents halting, or the round budget expiring. It returns an error for
// invalid configurations or if a program panics. Each program runs on
// its own NewProgramStepper coroutine over a fresh TrialContext; batch
// callers should hold a TrialContext or a TrialLane instead.
func Run(cfg Config, progA, progB Program) (*Result, error) {
	var sa, sb Stepper
	if progA != nil {
		sa = NewProgramStepper(progA)
	}
	if progB != nil {
		sb = NewProgramStepper(progB)
	}
	return runTeam(cfg, NewTrialContext(), []Stepper{sa, sb})
}

// runTeam is the single lockstep entry point behind Run, RunSteppers
// and RunTeam: validate, wire the agents to tc's scratch, loop.
func runTeam(cfg Config, tc *TrialContext, team []Stepper) (*Result, error) {
	// Lifecycle guarantee first, before any validation return: every
	// stepper handed to a run gets its Finish hook on every exit path,
	// so program coroutines never outlive the run (or touch
	// tc's buffers after they are handed to the next trial). See
	// Finisher. Finish order is reverse team order, matching the
	// stacked defers of the historical two-agent path.
	defer func() {
		for i := len(team) - 1; i >= 0; i-- {
			Finish(team[i])
		}
	}()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	for _, st := range team {
		if st == nil {
			return nil, errors.New("sim: nil agent (program or stepper)")
		}
	}
	if len(team) != cfg.teamSize() {
		return nil, fmt.Errorf("sim: %d steppers for a %d-agent scenario", len(team), cfg.teamSize())
	}
	tc.arm(cfg, team, false)
	return tc.rt.run()
}

// validate checks the configuration invariants shared by every entry
// point (solo runs and the lane scheduler alike).
func (cfg *Config) validate() error {
	if cfg.Graph == nil {
		return errors.New("sim: nil graph")
	}
	n := graph.Vertex(cfg.Graph.N())
	if sc := cfg.Scenario; sc != nil {
		return sc.Validate(n)
	}
	if cfg.StartA < 0 || cfg.StartA >= n || cfg.StartB < 0 || cfg.StartB >= n {
		return fmt.Errorf("sim: start vertices (%d, %d) out of range [0,%d)", cfg.StartA, cfg.StartB, n)
	}
	return nil
}

// arm primes tc for one run of cfg: reset the lockstep runtime in
// place, re-arm the whiteboard array, reseed every agent's private
// stream, and hand each stepper its run context — Init for a freshly
// built team, Reset for a reused one (reuse=true requires every
// stepper to implement Reusable). The caller has validated cfg and
// the steppers, and len(team) == cfg.teamSize(). The runtime and the
// per-agent state live on the trial context: one wholesale reset per
// run instead of one allocation per trial.
func (tc *TrialContext) arm(cfg Config, team []Stepper, reuse bool) {
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds(cfg.Graph)
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	k := len(team)
	tc.ensureAgents(k)
	rt := &tc.rt
	*rt = runtime{
		g:             cfg.Graph,
		whiteboards:   cfg.Whiteboards,
		maxRounds:     maxRounds,
		observer:      cfg.Observer,
		noMeeting:     cfg.DisableMeeting,
		meetFrom:      cfg.MeetingFromRound,
		meetFirstPair: cfg.Scenario != nil && cfg.Scenario.MeetFirstPair,
	}
	if cfg.Whiteboards {
		rt.boards = tc.boardsFor(cfg.Graph.N())
		rt.written = &tc.written
	}
	rt.agents = tc.agents[:k]
	for i, st := range team {
		ag := &rt.agents[i]
		*ag = agentState{
			name:    AgentName(i),
			st:      st,
			pos:     cfg.startOf(i),
			moveTo:  graph.NilVertex,
			waiting: cfg.delayOf(i),
			view:    View{g: cfg.Graph, kt1: cfg.NeighborIDs},
		}
		ctx := &tc.stepCtx[i]
		*ctx = StepContext{
			Name:        ag.name,
			NPrime:      cfg.Graph.NPrime(),
			NeighborIDs: cfg.NeighborIDs,
			Whiteboards: cfg.Whiteboards,
			Rand:        tc.randFor(i, seed, 0xA+uint64(i)),
			Scratch:     &tc.scratch[i],
			GraphStamp:  cfg.Graph.Stamp(),
		}
		if reuse {
			st.(Reusable).Reset(ctx)
		} else {
			st.Init(ctx)
		}
	}
}

// runtime is the per-run lockstep engine. agents aliases the owning
// TrialContext's per-agent buffer (see TrialContext.ensureAgents), so
// resetting the runtime wholesale per trial stays allocation-free at
// any team size.
type runtime struct {
	g             *graph.Graph
	whiteboards   bool
	boards        []int64
	written       *[]graph.Vertex // the owning TrialContext's written-board list
	maxRounds     int64
	observer      func(RoundEvent)
	noMeeting     bool
	meetFrom      int64
	meetFirstPair bool
	round         int64
	writes        int64
	agents        []agentState
}

// agentState is the runtime-side state of one agent.
type agentState struct {
	name         AgentName
	st           Stepper
	pos          graph.Vertex
	moveTo       graph.Vertex
	waiting      int64
	halted       bool
	pendingWrite bool
	writeVal     int64
	moves        int64
	stays        int64
	view         View
}

func (rt *runtime) run() (*Result, error) {
	res := new(Result)
	for {
		done, err := rt.tick(res)
		if err != nil {
			return nil, err
		}
		if done {
			return res, nil
		}
	}
}

// tick executes one iteration of the lockstep loop — the round-start
// checks, then at most one acting round (or one fast-forwarded block
// of waiting rounds) — and reports whether the run ended, filling out
// with the final result when it did. Factored out of run so the lane
// scheduler (TrialLane) can drive a resident trial with its own panic
// isolation and semantics identical to a solo run.
func (rt *runtime) tick(out *Result) (done bool, err error) {
	// Meeting check at the beginning of the round.
	if !rt.noMeeting && rt.round >= rt.meetFrom {
		if v, met := rt.met(); met {
			rt.fill(out)
			out.Met = true
			out.MeetRound = rt.round
			out.MeetVertex = v
			return true, nil
		}
	}
	if rt.round >= rt.maxRounds {
		rt.fill(out)
		return true, nil
	}
	allHalted := true
	for i := range rt.agents {
		if !rt.agents[i].halted {
			allHalted = false
			break
		}
	}
	if allHalted {
		rt.fill(out)
		return true, nil
	}
	// Fast-forward: if every live agent is mid-wait, skip ahead.
	if skip := rt.skippable(); skip > 1 {
		capped := min(skip, rt.maxRounds-rt.round)
		if rt.round < rt.meetFrom {
			// Do not skip past the detection barrier: the meeting
			// check must run exactly at meetFrom.
			capped = min(capped, rt.meetFrom-rt.round)
		}
		for i := range rt.agents {
			if d := &rt.agents[i]; !d.halted {
				d.waiting -= capped
				d.stays += capped
			}
		}
		rt.observe(capped)
		rt.round += capped
		return false, nil
	}
	// Collect one action from each live agent, a first.
	for i := range rt.agents {
		d := &rt.agents[i]
		if d.halted {
			continue
		}
		if d.waiting > 0 {
			d.waiting--
			d.stays++
			continue
		}
		if err := rt.step(d); err != nil {
			return true, fmt.Errorf("sim: agent %s: %w", d.name, err)
		}
	}
	// Commit whiteboard writes in agent order. When agents occupy
	// the same vertex (possible under DisableMeeting or before
	// MeetingFromRound) and several wrote this round, the
	// highest-indexed agent's value wins — last-writer-wins in team
	// order (b over a in the paper's pair) is a documented
	// guarantee, and every write still counts.
	for i := range rt.agents {
		d := &rt.agents[i]
		if d.pendingWrite {
			d.pendingWrite = false
			if rt.whiteboards {
				if rt.boards[d.pos] == NoMark {
					*rt.written = append(*rt.written, d.pos)
				}
				rt.boards[d.pos] = d.writeVal
				rt.writes++
			}
		}
	}
	rt.observe(1)
	for i := range rt.agents {
		d := &rt.agents[i]
		if d.moveTo != graph.NilVertex {
			d.pos = d.moveTo
			d.moveTo = graph.NilVertex
			d.moves++
		}
	}
	rt.round++
	return false, nil
}

// step builds d's view of the current round, asks its stepper for one
// action, and applies it to the runtime state.
func (rt *runtime) step(d *agentState) error {
	v := &d.view
	v.Round = rt.round
	v.locate(d.pos)
	v.Whiteboard = NoMark
	if rt.whiteboards {
		v.Whiteboard = rt.boards[d.pos]
	}
	act := d.st.Next(v)
	switch act.op & actKindMask {
	case actPanic:
		d.halted = true
		return *act.err
	case actHalt:
		d.halted = true
	case actStay:
		d.waiting = max(act.arg, 1) - 1
		d.stays++
	case actMove:
		if act.arg < 0 || act.arg >= int64(v.Degree) {
			d.halted = true
			return fmt.Errorf("moved through port %d of a degree-%d vertex", act.arg, v.Degree)
		}
		d.moveTo = rt.g.Neighbor(d.pos, int(act.arg))
	}
	if act.op&actWrite != 0 {
		d.pendingWrite = true
		d.writeVal = act.writeVal
	}
	return nil
}

// met evaluates the meeting predicate at the beginning of a round:
// all agents gathered at one vertex by default, or any two agents
// co-located under the first-pair predicate (the two coincide at
// k=2). It returns the meeting vertex when the predicate holds.
func (rt *runtime) met() (graph.Vertex, bool) {
	ags := rt.agents
	if !rt.meetFirstPair || len(ags) == 2 {
		p := ags[0].pos
		for i := 1; i < len(ags); i++ {
			if ags[i].pos != p {
				return graph.NilVertex, false
			}
		}
		return p, true
	}
	for i := range ags {
		for j := i + 1; j < len(ags); j++ {
			if ags[i].pos == ags[j].pos {
				return ags[i].pos, true
			}
		}
	}
	return graph.NilVertex, false
}

// skippable returns the largest number of rounds that can elapse with no
// agent needing to act (minimum of live agents' remaining waits; halted
// agents never act). Returns 0 if some live agent must act now.
func (rt *runtime) skippable() int64 {
	skip := int64(math.MaxInt64)
	live := false
	for i := range rt.agents {
		d := &rt.agents[i]
		if d.halted {
			continue
		}
		live = true
		if d.waiting < skip {
			skip = d.waiting
		}
	}
	if !live {
		return 0
	}
	return skip
}

func (rt *runtime) observe(skipped int64) {
	if rt.observer == nil {
		return
	}
	rt.observer(RoundEvent{
		Round:   rt.round,
		PosA:    rt.agents[AgentA].pos,
		PosB:    rt.agents[AgentB].pos,
		Skipped: skipped,
	})
}

// fill overwrites out with the run's final statistics (the caller
// sets the Met fields when the run ended in a rendezvous). Writing
// into a caller-provided box lets the lane reuse one Result across
// trials instead of allocating one per trial; on k>2 runs the box's
// Agents slice is reused the same way.
func (rt *runtime) fill(out *Result) {
	a, b := &rt.agents[0], &rt.agents[1]
	agents := out.Agents[:0]
	*out = Result{
		Rounds: rt.round,
		A:      AgentStats{Moves: a.moves, Stays: a.stays, Halted: a.halted},
		B:      AgentStats{Moves: b.moves, Stays: b.stays, Halted: b.halted},
		Writes: rt.writes,
	}
	if len(rt.agents) > 2 {
		for i := range rt.agents {
			d := &rt.agents[i]
			agents = append(agents, AgentStats{Moves: d.moves, Stays: d.stays, Halted: d.halted})
		}
		out.Agents = agents
	}
}
