package core

import (
	"errors"

	"fnr/internal/sim"
)

// WhiteboardStats collects diagnostics from agent a's run of the
// Theorem-1 algorithm. Fill it in by passing a pointer to the agent
// constructors; it is written only by the running agent and must be
// read only after sim.Run returns.
type WhiteboardStats struct {
	// Iterations is the number of Construct iterations (the paper's i;
	// Lemma 6 bounds it by O(n/δ)).
	Iterations int
	// OptimisticRuns and StrictRuns count the two kinds of Sample
	// invocations (Lemma 7 bounds strict runs by O(log n)).
	OptimisticRuns int
	StrictRuns     int
	// SampleVisits is the number of vertex visits spent inside Sample.
	SampleVisits int64
	// Restarts counts doubling-estimation restarts (§4.1).
	Restarts int
	// DeltaUsed is the final δ' estimate Construct succeeded with.
	DeltaUsed float64
	// ConstructRounds is the round at which Construct completed.
	ConstructRounds int64
	// T is the constructed dense set (vertex IDs); TSize = len(T).
	T     []int64
	TSize int
	// MemoryWords estimates agent a's state size in machine words
	// (set entries + via paths + cached neighborhoods). The paper
	// claims O(n log n) bits, i.e. O(n) words, suffice.
	MemoryWords int
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
// One divergence from the pseudocode, noted in DESIGN.md: vertices
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
