package core

import (
	"errors"
	"fmt"
)

// WhiteboardStats collects diagnostics from agent a's run of the
// Theorem-1 algorithm. Fill it in by passing a pointer to the agent
// constructors; it is written only by the running agent and must be
// read only after the run returns.
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

// constructPreflight validates the paper's δ ≥ 1 precondition as far
// as it is observable at the start vertex, instead of silently
// flooring the estimate: a degree-0 start (or a declared δ < 1
// without doubling) would previously spin Construct's restart loop or
// Main-Rendezvous's sampling loop forever without ever emitting an
// action, hanging the run. The stepper and its Program reference fail
// through this one check, so both report the identical error at the
// identical round.
func constructPreflight(know Knowledge, homeDegree int) error {
	// A degree-0 start contradicts δ ≥ 1 whatever the agent was told:
	// with a declared δ the main phase would sample T^a = {home}
	// forever without acting, with doubling the restart loop would
	// never terminate.
	if homeDegree == 0 {
		return errors.New("core: start vertex has degree 0; the paper's algorithms require δ ≥ 1")
	}
	if !know.Doubling && know.Delta < 1 {
		return fmt.Errorf("core: Construct requires a known minimum degree δ ≥ 1, got %d", know.Delta)
	}
	return nil
}

// initialDeltaEst derives the first δ' estimate: half the start
// degree under §4.1 doubling (floored at 1 — a valid lower estimate,
// not a precondition violation), the declared δ otherwise. Call after
// constructPreflight.
func initialDeltaEst(know Knowledge, homeDegree int) float64 {
	if know.Doubling {
		deltaEst := float64(homeDegree) / 2
		if deltaEst < 1 {
			deltaEst = 1
		}
		return deltaEst
	}
	return float64(know.Delta)
}

// halvedDeltaEst advances the doubling estimation after a restart. A
// restart demanded at δ' = 1 is impossible on δ ≥ 1 inputs (every
// visited vertex has the edge it was entered through), so instead of
// flooring into an infinite restart loop it is reported as an error.
func halvedDeltaEst(cur float64) (float64, error) {
	if cur <= 1 {
		return 0, errors.New("core: doubling estimation restarted at δ' = 1 — a visited vertex has degree 0, violating the δ ≥ 1 precondition")
	}
	next := cur / 2
	if next < 1 {
		next = 1
	}
	return next, nil
}

// SampleReport exposes one standalone Sample(Γ, α) classification for
// the Lemma-2 experiments (see SampleClassifierStepper).
type SampleReport struct {
	// Heavy is the output set H': the vertices of N+(start) classified
	// α-heavy for Γ = N+(start).
	Heavy []int64
	// Visits is the number of vertex visits the run spent.
	Visits int64
}
