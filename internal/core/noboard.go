package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
)

// noboardSchedule holds the quantities both agents of Algorithm 4
// derive independently from (n', δ); they must agree exactly for the
// phase barriers to synchronize.
type noboardSchedule struct {
	tPrime    int64 // start barrier t' = ⌈C1·n'·ln²n/δ⌉
	beta      int64 // ID-interval width β = ⌈√δ⌉
	residency int64 // per-vertex residency L = ⌈WaitMult·C2·ln n⌉
	phaseLen  int64 // phase length L²
	phases    int64 // ⌈n'/β⌉
	prob      float64
}

// newNoboardSchedule derives the schedule from (n', δ). Both agents
// call it with identical inputs, so the phase barriers synchronize by
// construction; the residency and β floors below are clamps on valid
// inputs, not repairs of invalid ones — δ < 1 or n' < 1 violate the
// paper's preconditions (the t' term divides by δ) and are rejected
// explicitly instead of silently floored into a nonsense schedule
// (float→int64 conversion of the +Inf barrier is not even
// well-defined).
func newNoboardSchedule(p Params, nPrime int64, delta int) (noboardSchedule, error) {
	if delta < 1 {
		return noboardSchedule{}, fmt.Errorf("core: Algorithm 4 requires a known minimum degree δ ≥ 1, got %d", delta)
	}
	if nPrime < 1 {
		return noboardSchedule{}, fmt.Errorf("core: Algorithm 4 requires an ID-space bound n' ≥ 1, got %d", nPrime)
	}
	lnN := lnOf(nPrime)
	d := float64(delta)
	l := int64(math.Ceil(p.WaitMult * p.C2 * lnN))
	if l < 8 {
		l = 8 // floor keeping slot travel (≤4 rounds) strictly inside
	}
	beta := int64(math.Ceil(math.Sqrt(d)))
	if beta < 1 {
		beta = 1
	}
	return noboardSchedule{
		tPrime:    int64(math.Ceil(p.C1 * float64(nPrime) * lnN * lnN / d)),
		beta:      beta,
		residency: l,
		phaseLen:  l * l,
		phases:    (nPrime + beta - 1) / beta,
		prob:      math.Min(1, p.PhiMult*lnN/math.Sqrt(d)),
	}, nil
}

// phaseEnd returns the global round at which phase i (1-based) ends.
func (s noboardSchedule) phaseEnd(i int64) int64 {
	return s.tPrime + i*s.phaseLen
}

// NoboardStats collects diagnostics from a run of the Theorem-2
// algorithm. Written only by the running agents; read it after the
// run returns.
type NoboardStats struct {
	// Construct holds agent a's Construct diagnostics.
	Construct WhiteboardStats
	// TPrime, PhaseLen, Phases echo the derived schedule.
	TPrime   int64
	PhaseLen int64
	Phases   int64
	// PhiA and PhiB are the sampled probe-set sizes.
	PhiA, PhiB int
	// OverflowPhasesA counts phases agent a could not finish within
	// the phase budget (sparseness violation; rare).
	OverflowPhasesA int
	// OverflowPhasesB counts phases agent b's sweeps overran.
	OverflowPhasesB int
	// LateConstruct reports that Construct finished after t'
	// (desynchronizes the schedule; indicates C1 too small).
	LateConstruct bool
	// Residencies records agent a's per-slot stays (vertex and the
	// inclusive round window during which a sat there). Mechanism
	// experiments match these against observed co-locations to find
	// the first *designed* meeting (b stepping onto a resident a).
	Residencies []Residency
}

// Residency is one slot stay of agent a in Algorithm 4.
type Residency struct {
	VertexID int64
	From, To int64 // inclusive round window at VertexID
}

// sampleSubsetInto returns the sorted subset of ids where each element
// is kept independently with probability prob, appending into out
// (reset to length 0) so batch callers can reuse a scratch buffer. The
// draw sequence is one rng.Float64 per element, in order — shared by
// the steppers and their Program reference.
func sampleSubsetInto(rng *rand.Rand, out, ids []int64, prob float64) []int64 {
	out = out[:0]
	for _, v := range ids {
		if rng.Float64() < prob {
			out = append(out, v)
		}
	}
	slices.Sort(out)
	return out
}
