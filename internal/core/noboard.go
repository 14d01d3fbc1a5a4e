package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"fnr/internal/sim"
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
// algorithm. Written only by the running agents; read it after
// sim.Run returns.
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

// sampleSubsetInto returns the sorted subset of ids where each element
// is kept independently with probability prob, appending into out
// (reset to length 0) so batch callers can reuse a scratch buffer. The
// draw sequence is one rng.Float64 per element, in order — shared by
// the Program and native stepper forms.
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

// sampleSubset is the Program-path form of sampleSubsetInto.
func sampleSubset(e *sim.Env, ids []int64, prob float64) []int64 {
	return sampleSubsetInto(e.Rand(), nil, ids, prob)
}
