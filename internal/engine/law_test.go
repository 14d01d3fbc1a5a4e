package engine

import (
	"math"
	"testing"

	"fnr/internal/graph"
)

// The first exact-law check: the simulator's round counting, the
// walker's port draws, the engine's trial seeding and the reducer's
// statistics against a distribution known in closed form — the one
// kind of defect no byte-identity pin can catch, because both sides of
// a pin share it. On K_n, stay-and-walk's walker moves each round to a
// uniform one of the n−1 other vertices, so it lands on the stayer
// with probability p = 1/(n−1) per round, independently: the meeting
// round is Geometric(p) on {1, 2, …}. This is the complete-graph
// setting Dani–Hayes–Moore–Russell (arXiv:1609.01582) analyse exactly.
// On K_64 the law has mean 63, median 44 and p95 188.
//
// The aggregate's mean, median and p95 must each lie within lawK
// standard errors of the law: σ/√N for the mean, and
// √(q(1−q)/N) / pmf(x_q) for the q-quantile x_q. lawK and the batch
// seed were fixed before the test first ran and are never re-picked.
func TestStayWalkMeetingRoundsFollowGeometricLaw(t *testing.T) {
	const (
		n      = 64
		trials = 400_000
		seed   = 1609
		lawK   = 5
	)
	g, err := graph.Complete(n)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := Run(t.Context(), Batch{
		Graph: g, StartA: 0, StartB: 1,
		Algorithm: "staywalk", Trials: trials, Seed: seed, MaxRounds: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Met != trials {
		t.Fatalf("%d of %d trials met; the geometric law leaves none unmet within 2^20 rounds", agg.Met, trials)
	}

	p := 1 / float64(n-1)
	// quantile is the law's q-quantile: the least k with
	// P(R ≤ k) = 1 − (1−p)^k ≥ q.
	quantile := func(q float64) float64 { return math.Ceil(math.Log(1-q) / math.Log(1-p)) }
	pmf := func(k float64) float64 { return p * math.Pow(1-p, k-1) }
	quantileSE := func(q float64) float64 { return math.Sqrt(q*(1-q)/trials) / pmf(quantile(q)) }
	for _, c := range []struct {
		name           string
		got, law, lit  float64
		standardErrors float64
	}{
		{"mean", agg.Rounds.Mean, 1 / p, 63, math.Sqrt(1-p) / p / math.Sqrt(trials)},
		{"median", agg.Rounds.Median, quantile(0.5), 44, quantileSE(0.5)},
		{"p95", agg.Rounds.P95, quantile(0.95), 188, quantileSE(0.95)},
	} {
		if c.law != c.lit {
			t.Fatalf("%s: closed form gives %v, want the published %v", c.name, c.law, c.lit)
		}
		if z := (c.got - c.law) / c.standardErrors; math.Abs(z) > lawK {
			t.Errorf("%s = %v, law %v: %.2f standard errors off (tolerance %d)", c.name, c.got, c.law, z, lawK)
		} else {
			t.Logf("%s = %v, law %v (%+.2f standard errors)", c.name, c.got, c.law, z)
		}
	}
}
