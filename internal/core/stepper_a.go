package core

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"fnr/internal/sim"
)

// This file is agent a of both paper algorithms as one explicit
// resumable sim.Stepper state machine: Construct (§4.1 doubling
// restarts included), Main-Rendezvous (Theorem 1) and the phase
// schedule of Algorithm 4. It is the only production form of agent a:
// single runs, batches and the experiment harness all step it inline,
// with no goroutine, coroutine or program closure per trial. The
// direct-style Programs in the package's _test.go files are the
// reference it is differential-tested against, draw for draw (RNG
// order, thresholds, stats); all pure arithmetic lives in the shared
// walkerCore and the schedule/estimate helpers, so only the sequencing
// is expressed here.
//
// Reading guide: each aPC value is a resume point, i.e. "what to do
// with the view of the agent's next acting round". A state handler
// either emits exactly one action (return) or transitions purely
// (continue); the blocking calls of the direct style (goTo, goHome,
// WaitUntilRound) are the travel/return/wait emissions below, with
// the follow-up state recorded in the machine.

// aPC is the resume point of the native agent-a machine.
type aPC uint8

const (
	// Construct (shared by both algorithms).
	pcStart aPC = iota
	pcConstructBegin
	pcRestart
	pcIterBegin
	pcSampleLoop
	pcSampleArrive
	pcSampleReturned
	pcAfterSample
	pcProbeLoop
	pcProbeArrive
	pcProbeReturned
	pcAfterStrictSample
	pcStrictLoop
	pcStrictArrive
	pcStrictReturned
	pcChosenGo
	pcChosenArrive
	pcConstructDone
	// Travel plumbing (outbound second hop, homebound second hop).
	pcOutVia
	pcReturnVia
	// Theorem-1 main phase.
	pcMainLoop
	pcMainArrive
	pcMainReturned
	pcWait
	// Algorithm-4 phase schedule.
	pcNbSchedule
	pcNbPhi
	pcNbPhaseBegin
	pcNbSlotLoop
	pcNbArrive
	pcNbResidencyDone
	// Halt: Algorithm 4's phases are over, or a construct-only run
	// has built T^a.
	pcHalt
	// Harness instruments (see ConstructOnlyStepper and friends).
	pcClassify
	pcClassified
	pcWarmStart
)

// waitForever is the bulk-stay the machine parks on once rendezvous is
// guaranteed by position (the runtime fast-forwards it; identical stay
// accounting to a loop of one-round stays).
const waitForever = int64(1) << 62

// WhiteboardSteppers returns the stepper pair of the Theorem-1
// algorithm: agent a runs Construct (with the §4.1 doubling
// δ-estimation if know.Doubling is set) and then Main-Rendezvous,
// sampling T^a for agent b's whiteboard mark; agent b obliviously
// marks random closed neighbors of its start vertex with its start
// ID. The pair needs whiteboards and neighbor-ID access. st may be
// nil.
func WhiteboardSteppers(p Params, know Knowledge, st *WhiteboardStats) (a, b sim.Stepper) {
	return &nativeAgentA{aConfig: aConfig{p: &p, know: know, wst: st, after: pcMainLoop}}, &whiteboardBStepper{}
}

// NoboardSteppers returns the stepper pair of the Theorem-2 algorithm
// (Algorithm 4, Rendezvous-without-Whiteboards). The pair requires
// neighbor-ID access and tight naming (n' = O(n)) but no whiteboards;
// both agents must know δ (the doubling technique of §4.1 applies only
// to the whiteboard algorithm's agent a). st may be nil.
func NoboardSteppers(p Params, delta int, st *NoboardStats) (a, b sim.Stepper) {
	as := &nativeAgentA{aConfig: aConfig{p: &p, know: Knowledge{Delta: delta}, nb: &nbAState{}, delta: delta, nst: st, after: pcNbSchedule}}
	if st != nil {
		as.wst = &st.Construct
	}
	return as, &noboardBStepper{p: &p, delta: delta, nst: st}
}

// ConstructOnlyStepper returns agent a of the Theorem-1 algorithm cut
// short: it runs Construct and halts, exposing T^a and the Construct
// counters through st for the Lemma 5–8 experiments.
func ConstructOnlyStepper(p Params, know Knowledge, st *WhiteboardStats) sim.Stepper {
	return &nativeAgentA{aConfig: aConfig{p: &p, know: know, wst: st, after: pcHalt}}
}

// SampleClassifierStepper returns an agent that runs one
// Sample(Γ, α) over Γ = N+(start) with α = delta/AlphaDen, stores the
// vertices it classified heavy (and the visits spent) in rep, and
// halts. It validates Lemma 2 / Corollary 1 empirically.
func SampleClassifierStepper(p Params, delta int, rep *SampleReport) sim.Stepper {
	return &nativeAgentA{aConfig: aConfig{p: &p, know: Knowledge{Delta: delta}, entry: pcClassify, rep: rep}, pc: pcClassify}
}

// MainPhaseSteppers returns the Theorem-1 pair with agent a started
// directly in the Main-Rendezvous loop on an externally supplied dense
// set t and its via-paths, as produced by DenseSetOracle. Every via
// entry must be a neighbor of a's start vertex (or the vertex itself
// for distance-1 members). Agent b is the usual oblivious marker.
func MainPhaseSteppers(t []int64, via map[int64]int64) (a, b sim.Stepper) {
	p := PracticalParams()
	return &nativeAgentA{aConfig: aConfig{p: &p, entry: pcWarmStart, warmT: t, warmVia: via}, pc: pcWarmStart}, &whiteboardBStepper{}
}

// nbAState is the Algorithm-4 schedule state of agent a, split out of
// nativeAgentA so the (hotter, smaller) whiteboard trials don't carry
// it.
type nbAState struct {
	sched      noboardSchedule
	phi        []int64
	phiIdx     int
	phase      int64
	phaseFrom  int64
	phaseTo    int64
	phaseHi    int64
	slotNo     int64
	slotEnd    int64
	resideU    int64
	resideFrom int64
}

// aConfig is the trial-constant configuration of the agent-a machine:
// everything Reset keeps.
type aConfig struct {
	// p is shared with the paired agent-b machine (read-only for the
	// whole trial).
	p     *Params
	know  Knowledge
	delta int // noboard δ
	wst   *WhiteboardStats
	nst   *NoboardStats
	nb    *nbAState // Algorithm-4 schedule state (noboard only)
	// entry is the state every trial starts in (pcStart unless an
	// instrument skips Construct); after is the state Construct hands
	// over to: pcMainLoop (Theorem 1), pcNbSchedule (Algorithm 4) or
	// pcHalt (construct-only).
	entry, after aPC
	rep          *SampleReport   // pcClassify's output
	warmT        []int64         // pcWarmStart's oracle dense set
	warmVia      map[int64]int64 // and its via-paths
}

// nativeAgentA is agent a as an explicit state machine.
type nativeAgentA struct {
	aConfig

	// Run-constant context (Init).
	rng        *rand.Rand
	nPrime     int64
	slot       *sim.AgentScratch
	graphStamp uint64

	// runConstruct's δ' bookkeeping (the walkerCore holds the copy the
	// current Construct attempt runs under).
	deltaEst float64

	w  walkerCore
	pc aPC

	// Travel plumbing: the outbound destination and the states to
	// dispatch at arrival / back home.
	outDest   int64
	outArrive aPC
	retAfter  aPC

	// Sample(Γ, α) sub-machine.
	sampleSet []int64
	sampleM   int
	sampleI   int
	sampleRet aPC
	heavyOut  []int64

	// Probe / strict exact checks.
	probeJ, probeMax int
	ecU              int64
	ecCnt            int
	chosen           int64

	// Theorem-1 main phase.
	mark int64
}

func (s *nativeAgentA) Init(ctx *sim.StepContext) {
	s.rng = ctx.Rand
	s.nPrime = ctx.NPrime
	s.slot = ctx.Scratch
	s.graphStamp = ctx.GraphStamp
}

// Reset re-arms the machine for another trial (the lane reuse
// contract): zero every per-trial field, keep only the trial-constant
// configuration, and Init with the new context. The parked
// walkerScratch survives on the context's scratch slot — exactly the
// reuse a freshly built stepper gets.
func (s *nativeAgentA) Reset(ctx *sim.StepContext) {
	if s.nb != nil {
		*s.nb = nbAState{}
	}
	*s = nativeAgentA{aConfig: s.aConfig, pc: s.entry}
	s.Init(ctx)
}

// moveTo emits the move crossing to the adjacent vertex id — the
// stepper counterpart of Env.MoveToID, aborting the run when id is not
// visible as a neighbor. Moves departing home — the overwhelming
// majority — read the port straight off the walker's N+(home) position
// index (npHomeL is home followed by the neighbors in port order),
// skipping the graph's per-vertex lookup.
func (s *nativeAgentA) moveTo(v *sim.View, id int64) sim.Action {
	if s.w.s != nil && v.HereID == s.w.home {
		if j := s.w.s.npIdx.get(id); j > 0 {
			return sim.Move(int(j) - 1)
		}
	}
	p, ok := v.PortOfID(id)
	if !ok {
		return sim.Abort(fmt.Errorf("core: agent a at vertex %d has no visible neighbor with ID %d", v.HereID, id))
	}
	return sim.Move(p)
}

// travelOut begins goTo(dest) for dest != home: ≤ 2 moves via the via
// table, with arrival bookkeeping (visit count, doubling degree check)
// handled by the arrive state.
func (s *nativeAgentA) travelOut(v *sim.View, dest int64, arrive aPC) sim.Action {
	via, ok := s.w.viaOf(dest)
	if !ok {
		return sim.Abort(fmt.Errorf("core: goTo(%d): vertex unknown to walker", dest))
	}
	s.outDest = dest
	s.outArrive = arrive
	if via != dest {
		s.pc = pcOutVia
		return s.moveTo(v, via)
	}
	s.pc = arrive
	return s.moveTo(v, dest)
}

// beginReturn begins goHome from the current vertex (≤ 2 moves, no
// degree checks), arranging for `after` to run with the view at home.
// emitted=false means the agent is already home.
func (s *nativeAgentA) beginReturn(v *sim.View, after aPC) (sim.Action, bool) {
	cur := v.HereID
	if cur == s.w.home {
		s.pc = after
		return sim.Action{}, false
	}
	if j := s.w.s.npIdx.get(cur); j >= 0 { // adjacent to home
		s.pc = after
		return s.homeward(v, int(j)), true
	}
	via, ok := s.w.viaOf(cur)
	if !ok {
		return sim.Abort(fmt.Errorf("core: goHome from unknown vertex %d", cur)), true
	}
	s.retAfter = after
	s.pc = pcReturnVia
	return s.moveTo(v, via), true
}

// homeward moves home from the j-th member of N+(home) through the
// walker's cached return port, falling back to the generic lookup if
// home is somehow not visible (moveTo then aborts, as before).
func (s *nativeAgentA) homeward(v *sim.View, j int) sim.Action {
	if p, ok := s.w.s.ret.Port(v, j); ok {
		return sim.Move(p)
	}
	return s.moveTo(v, s.w.home)
}

// arriveRestart handles a doubling violation observed on arrival: go
// home and restart Construct.
func (s *nativeAgentA) arriveRestart(v *sim.View) sim.Action {
	act, ok := s.beginReturn(v, pcRestart)
	if !ok {
		// Unreachable (arrivals are never at home), but keep the
		// machine total: restart without motion.
		return s.nextFrom(v)
	}
	return act
}

// startSample begins Sample(set, α) with completion state ret; an
// empty set (or α ≤ 0) completes at once with no heavy output.
func (s *nativeAgentA) startSample(set []int64, ret aPC) {
	s.sampleRet = ret
	if len(set) == 0 || s.w.alpha() <= 0 {
		s.heavyOut = nil
		s.pc = ret
		return
	}
	s.sampleSet = set
	s.sampleM = s.w.sampleSize(len(set), s.w.alpha())
	s.sampleI = 0
	s.w.sampleReset()
	s.pc = pcSampleLoop
}

// endWait emits WaitUntilRound(round) with resume state after; pure
// when the barrier has already passed.
func (s *nativeAgentA) endWait(v *sim.View, round int64, after aPC) (sim.Action, bool) {
	s.pc = after
	if round > v.Round {
		return sim.StayFor(round - v.Round), true
	}
	return sim.Action{}, false
}

func (s *nativeAgentA) Next(v *sim.View) sim.Action { return s.nextFrom(v) }

// nextFrom is the dispatch loop: run pure transitions until a state
// emits this acting round's action.
func (s *nativeAgentA) nextFrom(v *sim.View) sim.Action {
	for {
		switch s.pc {
		case pcStart:
			// Construct preamble: δ ≥ 1 preflight and the initial δ'
			// estimate.
			if err := constructPreflight(s.know, v.Degree); err != nil {
				return sim.Abort(err)
			}
			s.deltaEst = initialDeltaEst(s.know, v.Degree)
			s.pc = pcConstructBegin

		case pcConstructBegin:
			// Construct prologue: fresh walker core over the (reused)
			// scratch, home degree check, NS ← N+(home).
			ws := walkerScratchFor(s.slot)
			s.w = newWalkerCore(ws, s.graphStamp, s.nPrime, s.p, s.deltaEst, s.know.Doubling, v.HereID, ws.seenIDs(v))
			if s.w.degreeViolates(v.Degree) {
				s.pc = pcRestart // home itself violates the estimate
				continue
			}
			s.w.resetHeavyMarks()
			s.heavyOut = nil
			s.sampleSet = s.w.learn(s.w.home, s.w.s.homeNb) // Γ₁ = N+(home), reusing the field as gamma
			s.pc = pcIterBegin

		case pcRestart:
			// §4.1 doubling restart: halve δ' and construct anew.
			if s.wst != nil {
				s.wst.Restarts++
			}
			next, err := halvedDeltaEst(s.deltaEst)
			if err != nil {
				return sim.Abort(err)
			}
			s.deltaEst = next
			s.pc = pcConstructBegin

		case pcIterBegin:
			if s.wst != nil {
				s.wst.Iterations++
			}
			set := s.sampleSet // the difference set Γ_i held since the last learn
			if s.p.StrictOnly {
				set = s.w.s.nsL
				if s.wst != nil {
					s.wst.StrictRuns++
				}
			} else if s.wst != nil {
				s.wst.OptimisticRuns++
			}
			s.startSample(set, pcAfterSample)

		case pcSampleLoop: // at home
			if s.sampleI >= s.sampleM {
				s.heavyOut = s.w.sampleHeavy()
				s.pc = s.sampleRet
				continue
			}
			t := s.sampleSet[s.rng.IntN(len(s.sampleSet))]
			if t == s.w.home {
				s.w.sampleObserveHome()
				s.sampleI++
				continue
			}
			return s.travelOut(v, t, pcSampleArrive)

		case pcSampleArrive: // at the sampled vertex
			s.w.visits++
			if s.w.degreeViolates(v.Degree) {
				return s.arriveRestart(v)
			}
			if !s.w.sampleObserveMemo(v.HereID) {
				s.w.sampleObserveList(v.HereID, s.w.s.seenIDs(v))
			}
			if act, ok := s.beginReturn(v, pcSampleReturned); ok {
				return act
			}

		case pcSampleReturned: // back home
			if s.wst != nil {
				s.wst.SampleVisits++
			}
			s.sampleI++
			s.pc = pcSampleLoop

		case pcAfterSample:
			s.w.markHeavy(s.heavyOut)
			if len(s.w.candidates()) == 0 {
				s.pc = pcConstructDone // N+(home) fully classified heavy
				continue
			}
			s.probeMax = s.w.probeBudget()
			s.probeJ = 0
			s.pc = pcProbeLoop

		case pcProbeLoop: // at home; R (s.w.s.cand) fixed for the loop
			if s.probeJ >= s.probeMax {
				// Strict decision: Sample over all of NS.
				if s.wst != nil {
					s.wst.StrictRuns++
				}
				s.startSample(s.w.s.nsL, pcAfterStrictSample)
				continue
			}
			r := s.w.s.cand
			u := r[s.rng.IntN(len(r))]
			s.ecU = u
			if u == s.w.home {
				s.ecCnt = s.w.countAgainstNS(u, s.w.s.homeNb)
				s.pc = pcProbeReturned
				continue
			}
			return s.travelOut(v, u, pcProbeArrive)

		case pcProbeArrive: // at the probed candidate
			s.w.visits++
			if s.w.degreeViolates(v.Degree) {
				return s.arriveRestart(v)
			}
			nbs := s.w.s.seenIDs(v)
			s.ecCnt = s.w.countAgainstNS(v.HereID, nbs)
			s.w.noteLastSeen(v.HereID, nbs)
			if act, ok := s.beginReturn(v, pcProbeReturned); ok {
				return act
			}

		case pcProbeReturned: // back home: evaluate the exact check
			if float64(s.ecCnt) < s.w.lightBound() {
				s.chosen = s.ecU
				s.pc = pcChosenGo
				continue
			}
			s.probeJ++
			s.pc = pcProbeLoop

		case pcAfterStrictSample:
			s.w.markHeavy(s.heavyOut)
			s.pc = pcStrictLoop

		case pcStrictLoop: // at home; R recomputed every draw
			// One divergence from the pseudocode: a candidate drawn from
			// R after a strict run is verified exactly by visiting it
			// (the visit is needed anyway to learn N+(x_i)), and one that
			// turns out heavy is marked so instead of joining S. This
			// guarantees termination even when a scaled-down Sample
			// misclassifies, and adds no rounds beyond the paper's own
			// visit.
			r := s.w.candidates()
			if len(r) == 0 {
				s.pc = pcConstructDone // R = ∅ with no light vertex found
				continue
			}
			u := r[s.rng.IntN(len(r))]
			s.ecU = u
			if u == s.w.home {
				s.ecCnt = s.w.countAgainstNS(u, s.w.s.homeNb)
				s.pc = pcStrictReturned
				continue
			}
			return s.travelOut(v, u, pcStrictArrive)

		case pcStrictArrive:
			s.w.visits++
			if s.w.degreeViolates(v.Degree) {
				return s.arriveRestart(v)
			}
			nbs := s.w.s.seenIDs(v)
			s.ecCnt = s.w.countAgainstNS(v.HereID, nbs)
			s.w.noteLastSeen(v.HereID, nbs)
			if act, ok := s.beginReturn(v, pcStrictReturned); ok {
				return act
			}

		case pcStrictReturned:
			if float64(s.ecCnt) < s.w.lightBound() {
				s.chosen = s.ecU
				s.pc = pcChosenGo
				continue
			}
			s.w.markHeavyOne(s.ecU) // exactly verified heavy
			s.pc = pcStrictLoop

		case pcChosenGo: // S ← S ∪ {x_i}
			if nbs, cached := s.w.cachedNeighborhood(s.chosen); cached {
				s.sampleSet = s.w.learn(s.chosen, nbs) // Γ_{i+1}
				s.pc = pcIterBegin
				continue
			}
			return s.travelOut(v, s.chosen, pcChosenArrive)

		case pcChosenArrive: // at x_i: learn its neighborhood in place
			s.w.visits++
			if s.w.degreeViolates(v.Degree) {
				return s.arriveRestart(v)
			}
			s.sampleSet = s.w.learn(v.HereID, s.w.s.seenIDs(v)) // Γ_{i+1}
			if act, ok := s.beginReturn(v, pcIterBegin); ok {
				return act
			}

		case pcConstructDone: // at home: T^a = NS is built
			if s.wst != nil {
				s.wst.DeltaUsed = s.w.deltaEst
				s.wst.ConstructRounds = v.Round
				s.wst.T = append([]int64(nil), s.w.s.nsL...)
				s.wst.TSize = len(s.w.s.nsL)
				s.wst.MemoryWords = s.w.memoryWords()
			}
			// Degree checks are a Construct-only device; the main
			// phase must not trigger restarts.
			s.w.doubling = false
			s.pc = s.after

		case pcOutVia: // outbound at the via vertex
			if s.w.degreeViolates(v.Degree) {
				return s.arriveRestart(v)
			}
			s.pc = s.outArrive
			return s.moveTo(v, s.outDest)

		case pcReturnVia: // homebound at the via vertex
			s.pc = s.retAfter
			if j := s.w.s.npIdx.get(v.HereID); j >= 0 {
				return s.homeward(v, int(j))
			}
			return s.moveTo(v, s.w.home)

		case pcMainLoop: // Theorem-1 main phase, at home
			t := s.w.s.nsL
			u := t[s.rng.IntN(len(t))]
			if u != s.w.home {
				return s.travelOut(v, u, pcMainArrive)
			}
			// Drawing home visits it for free: read the mark here and
			// fall through to the same decision as a remote visit.
			s.mark = v.Whiteboard
			s.pc = pcMainReturned

		case pcMainArrive: // at the sampled T^a vertex
			s.w.visits++
			s.mark = v.Whiteboard
			if act, ok := s.beginReturn(v, pcMainReturned); ok {
				return act
			}

		case pcMainReturned: // back home: act on the mark read remotely
			mark := s.mark
			if mark == sim.NoMark {
				s.pc = pcMainLoop
				continue
			}
			// mark is b's start-vertex ID; the initial distance is one,
			// so it is a neighbor of home. A mark that is not adjacent
			// cannot come from this algorithm; skip it defensively.
			if !slices.Contains(s.w.s.homeNb, mark) && mark != s.w.home {
				s.pc = pcMainLoop
				continue
			}
			s.pc = pcWait
			if mark != s.w.home {
				return s.moveTo(v, mark)
			}

		case pcWait: // at b's start vertex: wait for b's next return
			return sim.StayFor(waitForever)

		case pcNbSchedule: // Algorithm 4: derive the phase schedule
			sched, err := newNoboardSchedule(*s.p, s.nPrime, s.delta)
			if err != nil {
				return sim.Abort(err)
			}
			s.nb.sched = sched
			if s.nst != nil {
				s.nst.TPrime = sched.tPrime
				s.nst.PhaseLen = sched.phaseLen
				s.nst.Phases = sched.phases
				if v.Round > sched.tPrime {
					s.nst.LateConstruct = true
				}
			}
			if act, ok := s.endWait(v, sched.tPrime, pcNbPhi); ok {
				return act // the t' start barrier
			}

		case pcNbPhi: // at home, round ≥ t': sample Φ^a ⊆ T^a
			s.nb.phi = sampleSubsetInto(s.rng, s.w.s.phi, s.w.s.nsL, s.nb.sched.prob)
			s.w.s.phi = s.nb.phi
			if s.nst != nil {
				s.nst.PhiA = len(s.nb.phi)
			}
			s.nb.phiIdx = 0
			s.nb.phase = 1
			s.pc = pcNbPhaseBegin

		case pcNbPhaseBegin:
			if s.nb.phase > s.nb.sched.phases {
				s.pc = pcHalt
				continue
			}
			s.nb.phaseFrom = s.nb.sched.phaseEnd(s.nb.phase - 1)
			s.nb.phaseTo = s.nb.sched.phaseEnd(s.nb.phase)
			s.nb.phaseHi = s.nb.phase * s.nb.sched.beta
			s.nb.slotNo = 0
			s.pc = pcNbSlotLoop

		case pcNbSlotLoop: // at home: next Φ^a vertex of this interval
			if !(s.nb.phiIdx < len(s.nb.phi) && s.nb.phi[s.nb.phiIdx] < s.nb.phaseHi) {
				s.nb.phase++
				if act, ok := s.endWait(v, s.nb.phaseTo, pcNbPhaseBegin); ok {
					return act // phase barrier
				}
				continue
			}
			s.nb.slotNo++
			s.nb.slotEnd = s.nb.phaseFrom + s.nb.slotNo*s.nb.sched.residency
			if s.nb.slotEnd > s.nb.phaseTo || v.Round > s.nb.slotEnd-s.nb.sched.residency+4 {
				// Out of slots (or running late): skip the rest of
				// this interval to preserve synchronization.
				if s.nst != nil {
					s.nst.OverflowPhasesA++
				}
				for s.nb.phiIdx < len(s.nb.phi) && s.nb.phi[s.nb.phiIdx] < s.nb.phaseHi {
					s.nb.phiIdx++
				}
				s.nb.phase++
				if act, ok := s.endWait(v, s.nb.phaseTo, pcNbPhaseBegin); ok {
					return act
				}
				continue
			}
			s.nb.resideU = s.nb.phi[s.nb.phiIdx]
			s.nb.phiIdx++
			if s.nb.resideU == s.w.home {
				s.pc = pcNbArrive
				continue
			}
			return s.travelOut(v, s.nb.resideU, pcNbArrive)

		case pcNbArrive: // at the slot vertex: reside until slotEnd-2
			if s.nb.resideU != s.w.home {
				s.w.visits++ // goTo's arrival bookkeeping (checks off)
			}
			s.nb.resideFrom = v.Round
			if act, ok := s.endWait(v, s.nb.slotEnd-2, pcNbResidencyDone); ok {
				return act
			}

		case pcNbResidencyDone: // residency over: record and go home
			if s.nst != nil {
				s.nst.Residencies = append(s.nst.Residencies, Residency{
					VertexID: s.nb.resideU, From: s.nb.resideFrom, To: v.Round,
				})
			}
			if act, ok := s.beginReturn(v, pcNbSlotLoop); ok {
				return act
			}

		case pcHalt: // all phases done (w.h.p. rendezvous earlier)
			return sim.Halt()

		case pcClassify: // Lemma-2 instrument: Sample(N+(home), δ/AlphaDen)
			ws := walkerScratchFor(s.slot)
			s.w = newWalkerCore(ws, s.graphStamp, s.nPrime, s.p, float64(s.know.Delta), false, v.HereID, ws.seenIDs(v))
			s.startSample(s.w.learn(s.w.home, s.w.s.homeNb), pcClassified)

		case pcClassified: // back home: report H' and halt
			// Copy: heavyOut is walker scratch and must not outlive
			// the run inside a caller-owned report.
			s.rep.Heavy = append([]int64(nil), s.heavyOut...)
			s.rep.Visits = s.w.visits
			return sim.Halt()

		case pcWarmStart: // oracle T^a: skip Construct, sample T^a at once
			ws := walkerScratchFor(s.slot)
			s.w = newWalkerCore(ws, s.graphStamp, s.nPrime, s.p, 1, false, v.HereID, ws.seenIDs(v))
			for _, id := range s.warmT {
				via, ok := s.warmVia[id]
				if !ok {
					return sim.Abort(fmt.Errorf("core: oracle set member %d has no via entry", id))
				}
				s.w.s.via.setIfMissing(id, via)
				if !s.w.s.ns.has(id) {
					s.w.s.ns.add(id)
					s.w.s.nsL = append(s.w.s.nsL, id)
				}
			}
			s.pc = pcMainLoop

		default:
			return sim.Abort(fmt.Errorf("core: native agent a in impossible state %d", s.pc))
		}
	}
}
