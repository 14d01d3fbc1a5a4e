// Package core implements the rendezvous algorithms of the paper "Fast
// Neighborhood Rendezvous" (Eguchi, Kitamura, Izumi; ICDCS 2020):
//
//   - the Sample(Γ, α) heaviness classifier (Algorithm 2, Lemma 2),
//   - the Construct procedure building an (a, δ/8, 2)-dense set T^a
//     (Algorithm 3, Lemmas 3–8),
//   - Main-Rendezvous, the whiteboard algorithm of Theorem 1,
//   - Rendezvous-without-Whiteboards, the tight-naming algorithm of
//     Theorem 2 (Algorithm 4), and
//   - the doubling minimum-degree estimation of §4.1 (Corollary 2).
//
// Agents are sim.Steppers (stepper_a.go, stepper_b.go); all graph
// knowledge is acquired through the simulator's views (neighbor IDs of
// the current vertex), never by inspecting the graph structure
// directly. Direct-style Program forms of the same agents live in the
// package's tests as the reference the steppers are checked against.
package core

import "math"

// Params carries every constant in the paper's pseudocode. The paper's
// values make the union bounds close at asymptotic n but are
// impractically large for simulation at laptop-scale n (e.g. one
// no-whiteboard phase is ⌈4·18·ln n⌉² ≈ 250k rounds at n=1024), so two
// presets are provided. Scaling the constants changes only the
// failure-probability exponent, never the asymptotic round complexity;
// E10 (cmd/experiments -run E10) reports measured success rates
// under Practical.
type Params struct {
	// SampleMult is the sample-count multiplier of Algorithm 2: the
	// run of Sample(Γ, α) visits ⌈SampleMult·|Γ|·ln n/α⌉ random
	// vertices of Γ. Paper value: 96.
	SampleMult float64
	// HeavyThresholdMult sets the heaviness decision threshold
	// ℓ = ⌈HeavyThresholdMult·ln n⌉ on the visit counters. Paper
	// value: 150.
	HeavyThresholdMult float64
	// ProbeMult is the strict-decision probe count multiplier of
	// Algorithm 3 (step 2 samples ⌈ProbeMult·ln n⌉ candidates and
	// verifies them exactly by visiting). Paper value: 4.
	ProbeMult float64
	// AlphaDen sets the heaviness parameter α = δ/AlphaDen. Paper
	// value: 8.
	AlphaDen float64
	// LightDen sets the exact lightness check threshold δ/LightDen
	// used when probing candidates. Paper value: 2.
	LightDen float64
	// C1 scales the no-whiteboard start barrier
	// t' = ⌈C1·n'·ln²n/δ⌉ by which Construct must have finished.
	// Paper: "sufficiently large constant c₁".
	C1 float64
	// C2 is the sparseness constant of Theorem 2's analysis. Paper
	// value: 18.
	C2 float64
	// PhiMult scales the Φ-set inclusion probability
	// min(1, PhiMult·ln n/√δ). Paper value: 4.
	PhiMult float64
	// WaitMult scales the per-vertex residency L = ⌈WaitMult·C2·ln n⌉
	// of Algorithm 4 (each phase lasts L² rounds). Paper value: 4.
	WaitMult float64
	// StrictOnly disables the optimistic difference-set Samples and
	// runs a strict Sample over all of NS in every iteration — the
	// O((n/δ)²) strawman §3.3 motivates the two-step strategy against.
	// Ablation use only.
	StrictOnly bool
}

// PaperParams returns the constants exactly as printed in the paper.
func PaperParams() Params {
	return Params{
		SampleMult:         96,
		HeavyThresholdMult: 150,
		ProbeMult:          4,
		AlphaDen:           8,
		LightDen:           2,
		// The paper only requires c₁ "sufficiently large"; 1000 covers
		// the measured Construct cost under these sample volumes.
		C1:       1000,
		C2:       18,
		PhiMult:  4,
		WaitMult: 4,
	}
}

// PracticalParams returns constants scaled for laptop-size n. The
// ratios that the proofs rely on are preserved (the threshold sits
// strictly between the α-light and 4α-heavy expectations; the phase
// length dominates the sweep length), so the asymptotic behaviour and
// the w.h.p. structure are intact — only the probability exponents
// shrink. Measured success rates under these constants are reported by
// E10 (cmd/experiments -run E10).
func PracticalParams() Params {
	return Params{
		SampleMult:         12,
		HeavyThresholdMult: 20,
		ProbeMult:          2,
		AlphaDen:           8,
		LightDen:           2,
		// Calibrated: measured Construct cost is 46–86·n·ln²n/δ rounds
		// across n ∈ [128, 4096] under these sample volumes.
		C1:       120,
		C2:       4,
		PhiMult:  1.5,
		WaitMult: 2,
	}
}

// lnOf returns the natural log of the ID-space bound, the agents' only
// handle on log n (n' = n^O(1) so ln n' = Θ(ln n)); clamped below at 1.
func lnOf(nPrime int64) float64 {
	if nPrime < 3 {
		return 1
	}
	return math.Log(float64(nPrime))
}

// Knowledge describes what agent a knows about the minimum degree.
type Knowledge struct {
	// Delta is the known minimum degree (or a constant-factor lower
	// estimate of it). Ignored when Doubling is set.
	Delta int
	// Doubling enables the §4.1 estimation: start from half the start
	// vertex's degree and restart Construct with a halved estimate
	// whenever a visited vertex's degree undercuts it.
	Doubling bool
}
