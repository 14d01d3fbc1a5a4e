package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"fnr/internal/sim"
)

// This file is the Program oracle: the paper's agents written in direct
// style against sim.Env, where Construct, Sample and the phase schedule
// read as the paper's pseudocode. Production runs only the native
// steppers of stepper_a.go and stepper_b.go; the differential tests in
// stepper_test.go hold those machines to these programs action for
// action, RNG draw for draw and stat for stat.

// restartError signals a doubling-estimation restart: a visited
// vertex's degree undercut the current δ' estimate (§4.1).
type restartError struct {
	seenDegree int
}

func (e *restartError) Error() string {
	return fmt.Sprintf("core: visited vertex of degree %d below current δ' estimate", e.seenDegree)
}

// walker couples a walkerCore to the Program path's Env: movement
// (goTo/goHome) and observation go through Env calls, each suspending
// the program's coroutine until its next acting round.
type walker struct {
	walkerCore
	e *sim.Env
}

// newWalker builds the Program-path walker. Must be called with the
// agent at its start vertex.
func newWalker(e *sim.Env, p *Params, deltaEst float64, doubling bool) *walker {
	return &walker{
		walkerCore: newWalkerCore(walkerScratchFor(e.Scratch()), 0, e.NPrime(), p, deltaEst, doubling, e.HereID(), e.NeighborIDs()),
		e:          e,
	}
}

// checkDegree enforces the doubling-estimation invariant on the vertex
// the agent currently occupies.
func (w *walker) checkDegree() error {
	if w.degreeViolates(w.e.Degree()) {
		return &restartError{seenDegree: w.e.Degree()}
	}
	return nil
}

// goTo moves from home to the known vertex target (≤ 2 moves) and
// verifies the degree invariant on arrival. The caller must currently
// be at home.
func (w *walker) goTo(target int64) error {
	if target == w.home {
		return nil
	}
	via, ok := w.viaOf(target)
	if !ok {
		return fmt.Errorf("core: goTo(%d): vertex unknown to walker", target)
	}
	if via != target {
		if err := w.e.MoveToID(via); err != nil {
			return err
		}
		if err := w.checkDegree(); err != nil {
			return err
		}
	}
	if err := w.e.MoveToID(target); err != nil {
		return err
	}
	w.visits++
	return w.checkDegree()
}

// goHome returns to home from wherever the agent stands (≤ 2 moves).
func (w *walker) goHome() error {
	cur := w.e.HereID()
	if cur == w.home {
		return nil
	}
	if w.s.npIdx.get(cur) < 0 { // not adjacent to home: go via
		via, ok := w.viaOf(cur)
		if !ok {
			return fmt.Errorf("core: goHome from unknown vertex %d", cur)
		}
		if err := w.e.MoveToID(via); err != nil {
			return err
		}
	}
	return w.e.MoveToID(w.home)
}

// observeHere returns N+(current vertex) as (self ID, neighbor IDs).
// The neighbor slice is the simulator's shared buffer: valid only until
// the next move.
func (w *walker) observeHere() (int64, []int64) {
	return w.e.HereID(), w.e.NeighborIDs()
}

// exactCount returns |NS ∩ N+(u)| by visiting u, as the strict
// decision of Algorithm 3 does (home is free: its neighborhood is
// known). The observed neighborhood is retained as the single-entry
// lastSeen cache so that learn can use it if u is selected as x_i. The
// agent ends the call back at home.
func (w *walker) exactCount(u int64) (int, error) {
	if u == w.home {
		return w.countAgainstNS(u, w.s.homeNb), nil
	}
	if err := w.goTo(u); err != nil {
		return 0, err
	}
	self, nbs := w.observeHere()
	cnt := w.countAgainstNS(self, nbs)
	w.noteLastSeen(self, nbs)
	if err := w.goHome(); err != nil {
		return 0, err
	}
	return cnt, nil
}

// WhiteboardAgents returns the (a, b) program pair implementing the
// Theorem-1 algorithm: agent a runs Construct and then Main-Rendezvous
// sampling; agent b obliviously marks random closed neighbors of its
// start vertex with its start ID. The pair needs whiteboards and
// neighbor-ID access. st may be nil.
func WhiteboardAgents(p Params, know Knowledge, st *WhiteboardStats) (a, b sim.Program) {
	return AgentA(p, know, st), AgentB()
}

// AgentA returns agent a's program for the Theorem-1 algorithm:
// Construct an (a, δ/8, 2)-dense set T^a (with doubling δ-estimation if
// requested), then repeatedly sample a uniform vertex of T^a, read its
// whiteboard, and on finding agent b's mark move to b's start vertex
// and wait there. st may be nil.
func AgentA(p Params, know Knowledge, st *WhiteboardStats) sim.Program {
	return func(e *sim.Env) {
		w := runConstruct(e, &p, know, st)
		mainRendezvousA(e, w)
	}
}

// ConstructOnly returns a program that runs Construct and halts,
// exposing T^a through st for the Lemma 5–8 experiments.
func ConstructOnly(p Params, know Knowledge, st *WhiteboardStats) sim.Program {
	return func(e *sim.Env) {
		runConstruct(e, &p, know, st)
	}
}

// runConstruct runs Construct under the requested δ-knowledge mode,
// handling §4.1 doubling restarts.
func runConstruct(e *sim.Env, p *Params, know Knowledge, st *WhiteboardStats) *walker {
	if err := constructPreflight(know, e.Degree()); err != nil {
		panic(err)
	}
	deltaEst := initialDeltaEst(know, e.Degree())
	for {
		w, err := constructDense(e, p, deltaEst, know.Doubling, st)
		if err == nil {
			// Degree checks are a Construct-only device; the main
			// phase must not trigger restarts.
			w.doubling = false
			return w
		}
		var re *restartError
		if !know.Doubling || !errors.As(err, &re) {
			panic(err)
		}
		if st != nil {
			st.Restarts++
		}
		next, derr := halvedDeltaEst(deltaEst)
		if derr != nil {
			panic(derr)
		}
		deltaEst = next
	}
}

// mainRendezvousA is agent a's loop of Algorithm 1: sample v ∈ T^a
// uniformly, visit it, read the whiteboard, return home; once a mark
// (b's start-vertex ID) is found, move there and wait for b.
func mainRendezvousA(e *sim.Env, w *walker) {
	t := w.s.nsL
	rng := e.Rand()
	for {
		v := t[rng.IntN(len(t))]
		if err := w.goTo(v); err != nil {
			panic(err)
		}
		mark := e.Whiteboard()
		if err := w.goHome(); err != nil {
			panic(err)
		}
		if mark == sim.NoMark {
			continue
		}
		// mark is b's start-vertex ID; the initial distance is one, so
		// it is a neighbor of home. A mark that is not adjacent cannot
		// come from this algorithm; skip it defensively.
		if !slices.Contains(w.s.homeNb, mark) && mark != w.home {
			continue
		}
		if mark != w.home {
			if err := e.MoveToID(mark); err != nil {
				panic(err)
			}
		}
		// Wait for b's next return to its start vertex.
		for {
			e.Stay()
		}
	}
}

// AgentB returns agent b's oblivious program of Algorithm 1: repeatedly
// pick u uniformly from N+(start), visit it, write the start vertex's
// ID on its whiteboard, and return. It needs no knowledge of n or δ.
func AgentB() sim.Program {
	return func(e *sim.Env) {
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
				e.Stay() // commit the write, staying put
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
}

// SampleClassifier returns a program that classifies every vertex of
// N+(start) as heavy or light for Γ = N+(start) with α = δ/AlphaDen,
// stores the result in rep, and halts. Used to validate Lemma 2 /
// Corollary 1 empirically.
func SampleClassifier(p Params, delta int, rep *SampleReport) sim.Program {
	return func(e *sim.Env) {
		w := newWalker(e, &p, float64(delta), false)
		gamma := w.learn(w.home, w.s.homeNb)
		heavy, err := w.sampleRun(gamma, w.alpha(), nil)
		if err != nil {
			panic(err)
		}
		// Copy: the sampleRun result is walker scratch and must not
		// outlive the run inside a caller-owned report.
		rep.Heavy = append([]int64(nil), heavy...)
		rep.Visits = w.visits
	}
}

// sampleRun implements Algorithm 2, Sample(Γ, α): visit
// ⌈SampleMult·|Γ|·ln n / α⌉ uniform samples of Γ (with replacement),
// counting for every u ∈ N+(home) how many visited vertices contain u
// in their closed neighborhood, and output as heavy the vertices whose
// counter reaches ℓ = ⌈HeavyThresholdMult·ln n⌉.
//
// Per Lemma 2, with the paper's constants each output vertex is α-heavy
// for Γ and each non-output vertex is 4α-light for Γ, w.h.p.
func (w *walker) sampleRun(gamma []int64, alpha float64, st *WhiteboardStats) ([]int64, error) {
	if len(gamma) == 0 || alpha <= 0 {
		return nil, nil
	}
	m := w.sampleSize(len(gamma), alpha)
	w.sampleReset()
	rng := w.e.Rand()
	for i := 0; i < m; i++ {
		v := gamma[rng.IntN(len(gamma))]
		if v == w.home {
			w.sampleObserveHome()
			continue
		}
		if err := w.goTo(v); err != nil {
			return nil, err
		}
		self, nbs := w.observeHere()
		w.sampleObserve(self, nbs)
		if err := w.goHome(); err != nil {
			return nil, err
		}
		if st != nil {
			st.SampleVisits++
		}
	}
	return w.sampleHeavy(), nil
}

// constructDense implements Algorithm 3, Construct: grow S ⊆ N+(home)
// by repeatedly adding a δ/2-light vertex x_i (found by an optimistic
// Sample over the newly-added difference set, then exact probes, then a
// strict Sample over all of NS), until every vertex of N+(home) is
// classified δ/8-heavy for NS = N+(S). The returned walker's ns/nsL is
// the (a, δ/8, 2)-dense set T^a (Lemma 6).
//
// One divergence from the pseudocode, shared with the agent-a stepper
// (stepper_a.go, pcStrictLoop): vertices
// drawn from R after a strict run are verified exactly by visiting them
// (the visit is needed anyway to learn N+(x_i)); a candidate that turns
// out heavy is recorded as such instead of being added to S. This
// guarantees termination even when a scaled-down Sample misclassifies,
// and never adds rounds beyond the paper's own visit.
//
// On a doubling-estimation violation the walker returns home and a
// *restartError is returned.
func constructDense(e *sim.Env, p *Params, deltaEst float64, doubling bool, st *WhiteboardStats) (*walker, error) {
	w := newWalker(e, p, deltaEst, doubling)
	if err := w.checkDegree(); err != nil {
		return nil, err // home itself violates the estimate
	}
	ws := w.s
	// The H marks and candidate list are walker scratch, reused across
	// trials (see the walkerCore helpers).
	w.resetHeavyMarks()
	gamma := w.learn(w.home, ws.homeNb) // NS ← N+(home); Γ₁ = N+(home)
	rng := e.Rand()

	goHomeAndReturn := func(err error) (*walker, error) {
		var re *restartError
		if errors.As(err, &re) {
			if herr := w.goHome(); herr != nil {
				return nil, herr
			}
		}
		return nil, err
	}

	for {
		if st != nil {
			st.Iterations++
		}
		// Optimistic decision: Sample over the difference set (or, in
		// the StrictOnly ablation, a strict Sample over all of NS — the
		// strawman whose O((n/δ)²) total cost §3.3 motivates the
		// two-step strategy against).
		sampleSet := gamma
		if p.StrictOnly {
			sampleSet = ws.nsL
			if st != nil {
				st.StrictRuns++
			}
		} else if st != nil {
			st.OptimisticRuns++
		}
		heavy, err := w.sampleRun(sampleSet, w.alpha(), st)
		if err != nil {
			return goHomeAndReturn(err)
		}
		w.markHeavy(heavy)
		r := w.candidates()
		if len(r) == 0 {
			break
		}
		// Step 2: probe up to ⌈ProbeMult·ln n⌉ random candidates,
		// checking lightness exactly by visiting.
		probes := w.probeBudget()
		var chosen int64
		found := false
		for j := 0; j < probes; j++ {
			u := r[rng.IntN(len(r))]
			cnt, err := w.exactCount(u)
			if err != nil {
				return goHomeAndReturn(err)
			}
			if float64(cnt) < w.lightBound() {
				chosen, found = u, true
				break
			}
		}
		if !found {
			// Strict decision: Sample over all of NS, then draw
			// exactly-verified candidates until a light one appears or
			// R empties.
			if st != nil {
				st.StrictRuns++
			}
			heavy, err := w.sampleRun(ws.nsL, w.alpha(), st)
			if err != nil {
				return goHomeAndReturn(err)
			}
			w.markHeavy(heavy)
			for {
				r = w.candidates()
				if len(r) == 0 {
					break
				}
				u := r[rng.IntN(len(r))]
				cnt, err := w.exactCount(u)
				if err != nil {
					return goHomeAndReturn(err)
				}
				if float64(cnt) < w.lightBound() {
					chosen, found = u, true
					break
				}
				w.markHeavyOne(u) // exactly verified heavy
			}
			if !found {
				break // R = ∅: N+(home) fully classified heavy
			}
		}
		// S ← S ∪ {x_i}; NS ← NS ∪ N+(x_i). The exact check just
		// visited x_i, so its neighborhood is cached. (S itself needs
		// no explicit set: NS and the via table carry everything the
		// algorithm reads.)
		nbs, cached := w.cachedNeighborhood(chosen)
		if !cached {
			if err := w.goTo(chosen); err != nil {
				return goHomeAndReturn(err)
			}
			self, seen := w.observeHere()
			gamma = w.learn(self, seen)
			if err := w.goHome(); err != nil {
				return goHomeAndReturn(err)
			}
		} else {
			gamma = w.learn(chosen, nbs)
		}
	}
	if st != nil {
		st.DeltaUsed = w.deltaEst
		st.ConstructRounds = e.Round()
		st.T = append([]int64(nil), ws.nsL...)
		st.TSize = len(ws.nsL)
		st.MemoryWords = w.memoryWords()
	}
	return w, nil
}

// NoboardAgents returns the (a, b) program pair of Theorem 2
// (Algorithm 4, Rendezvous-without-Whiteboards). The pair requires
// neighbor-ID access and tight naming (n' = O(n)) but no whiteboards;
// both agents must know δ (the doubling technique of §4.1 applies only
// to the whiteboard algorithm's agent a). st may be nil.
func NoboardAgents(p Params, delta int, st *NoboardStats) (a, b sim.Program) {
	return NoboardAgentA(p, delta, st), NoboardAgentB(p, delta, st)
}

// NoboardAgentA returns agent a's program: run Construct before the t'
// barrier, sample Φ^a ⊆ T^a with probability PhiMult·ln n/√δ, then in
// phase i visit each vertex of Φ^a with ID in the i-th β-interval in
// ascending order, residing L rounds per vertex.
func NoboardAgentA(p Params, delta int, st *NoboardStats) sim.Program {
	return func(e *sim.Env) {
		var cst *WhiteboardStats
		if st != nil {
			cst = &st.Construct
		}
		w := runConstruct(e, &p, Knowledge{Delta: delta}, cst)
		sched, err := newNoboardSchedule(p, e.NPrime(), delta)
		if err != nil {
			panic(err)
		}
		if st != nil {
			st.TPrime = sched.tPrime
			st.PhaseLen = sched.phaseLen
			st.Phases = sched.phases
			if e.Round() > sched.tPrime {
				st.LateConstruct = true
			}
		}
		e.WaitUntilRound(sched.tPrime)
		phi := sampleSubset(e, w.s.nsL, sched.prob)
		if st != nil {
			st.PhiA = len(phi)
		}
		idx := 0
		for i := int64(1); i <= sched.phases; i++ {
			phaseStart := sched.phaseEnd(i - 1)
			end := sched.phaseEnd(i)
			hi := i * sched.beta
			slot := int64(0)
			for idx < len(phi) && phi[idx] < hi {
				slot++
				slotEnd := phaseStart + slot*sched.residency
				if slotEnd > end || e.Round() > slotEnd-sched.residency+4 {
					// Out of slots (or running late): skip the rest of
					// this interval to preserve synchronization.
					if st != nil {
						st.OverflowPhasesA++
					}
					for idx < len(phi) && phi[idx] < hi {
						idx++
					}
					break
				}
				u := phi[idx]
				idx++
				if err := w.goTo(u); err != nil {
					panic(err)
				}
				from := e.Round()
				e.WaitUntilRound(slotEnd - 2)
				if st != nil {
					st.Residencies = append(st.Residencies, Residency{
						VertexID: u, From: from, To: e.Round(),
					})
				}
				if err := w.goHome(); err != nil {
					panic(err)
				}
			}
			e.WaitUntilRound(end)
		}
		// All phases done; halt (w.h.p. rendezvous happened earlier).
	}
}

// NoboardAgentB returns agent b's program: sample Φ^b ⊆ N+(start), and
// in phase i sweep the vertices of Φ^b in the i-th β-interval L times,
// pausing two rounds at the start vertex between sweeps.
func NoboardAgentB(p Params, delta int, st *NoboardStats) sim.Program {
	return func(e *sim.Env) {
		// Schedule derivation first: a δ < 1 input fails here, at round
		// 0 and before any RNG draw, on both the Program and the native
		// stepper path.
		sched, err := newNoboardSchedule(p, e.NPrime(), delta)
		if err != nil {
			panic(err)
		}
		home := e.HereID()
		np := make([]int64, 0, e.Degree()+1)
		np = append(np, home)
		np = append(np, e.NeighborIDs()...)
		phi := sampleSubset(e, np, sched.prob)
		if st != nil {
			st.PhiB = len(phi)
		}
		e.WaitUntilRound(sched.tPrime)
		idx := 0
		for i := int64(1); i <= sched.phases; i++ {
			end := sched.phaseEnd(i)
			hi := i * sched.beta
			start := idx
			for idx < len(phi) && phi[idx] < hi {
				idx++
			}
			group := phi[start:idx]
			if len(group) == 0 {
				e.WaitUntilRound(end)
				continue
			}
			sweepCost := 2*int64(len(group)) + 2
			for j := int64(0); j < sched.residency; j++ {
				if e.Round()+sweepCost > end {
					if st != nil {
						st.OverflowPhasesB++
					}
					break
				}
				for _, u := range group {
					if u == home {
						continue
					}
					if err := e.MoveToID(u); err != nil {
						panic(err)
					}
					if err := e.MoveToID(home); err != nil {
						panic(err)
					}
				}
				e.StayFor(2)
			}
			e.WaitUntilRound(end)
		}
	}
}

// sampleSubset is the Program-path form of sampleSubsetInto.
func sampleSubset(e *sim.Env, ids []int64, prob float64) []int64 {
	return sampleSubsetInto(e.Rand(), nil, ids, prob)
}

// MainPhaseAgentA returns agent a's program starting directly in the
// Main-Rendezvous loop (Algorithm 1) with an externally supplied dense
// set and via-paths, as produced by DenseSetOracle. Every via entry
// must be a neighbor of a's start vertex (or the vertex itself for
// distance-1 members). Pair it with AgentB.
func MainPhaseAgentA(t []int64, via map[int64]int64) sim.Program {
	return func(e *sim.Env) {
		params := PracticalParams()
		w := newWalker(e, &params, 1, false)
		for _, id := range t {
			v, ok := via[id]
			if !ok {
				panic(fmt.Sprintf("core: oracle set member %d has no via entry", id))
			}
			w.s.via.setIfMissing(id, v)
			if !w.s.ns.has(id) {
				w.s.ns.add(id)
				w.s.nsL = append(w.s.nsL, id)
			}
		}
		mainRendezvousA(e, w)
	}
}

func TestRestartErrorMessage(t *testing.T) {
	err := &restartError{seenDegree: 3}
	if msg := err.Error(); msg == "" || !strings.Contains(msg, "3") {
		t.Fatalf("unhelpful restart error: %q", msg)
	}
}
