package engine

import (
	"fmt"
	"strconv"
	"strings"

	"fnr/internal/sim"
)

// This file is the engine's deterministic fault-injection harness —
// the knob that makes the fault-tolerance layer itself
// differential-testable. A FaultPlan assigns each global trial index
// a fault kind (or none) as a pure function of (plan seed, trial
// index), so the same plan produces the same faulted trials at any
// worker count or shard split, and the engine's core invariant
// (byte-identical aggregates regardless of parallelism) extends to
// batches that panic, stall and fail to build. Faults interpose on
// the lane: a builder error is vetoed before the team is armed (the
// lane's PreArm hook), and panic/stall faults fire from a wrapper
// stepper's Next.

// FaultKind is one injected failure mode.
type FaultKind uint8

const (
	// FaultNone leaves the trial untouched.
	FaultNone FaultKind = iota
	// FaultPanic panics on the trial's first stepper Next call — the
	// probe for per-trial panic isolation and lane quarantine.
	FaultPanic
	// FaultStall makes both agents stay put for the rest of the
	// budget, so the trial deterministically exhausts MaxRounds (the
	// delayed/lossy-execution probe, in the spirit of
	// asynchronous-start rendezvous models).
	FaultStall
	// FaultBuildErr fails the trial's stepper construction — the
	// probe for mid-batch builder-error hygiene.
	FaultBuildErr
)

// FaultPlan injects deterministic per-trial faults into a batch (see
// Batch.Faults). Each probability selects the fraction of trials hit
// by that fault kind; kinds are mutually exclusive per trial
// (probabilities must sum to ≤ 1). The zero probabilities inject
// nothing.
type FaultPlan struct {
	// Seed drives fault placement; independent of the batch seed, so
	// the same trial outcomes can be replayed under different fault
	// placements and vice versa.
	Seed uint64
	// PPanic, PStall and PBuildErr are the per-trial probabilities of
	// each fault kind.
	PPanic, PStall, PBuildErr float64
}

// ParseFaultPlan parses the fault-plan spec grammar — comma-separated
// `kind:p=PROB` clauses over the kinds panic, stall and builderr,
// e.g. "panic:p=1e-4,stall:p=1e-4,builderr:p=1e-5" — into a plan
// with the given placement seed.
func ParseFaultPlan(spec string, seed uint64) (*FaultPlan, error) {
	f := &FaultPlan{Seed: seed}
	seen := map[string]bool{}
	for clause := range strings.SplitSeq(spec, ",") {
		clause = strings.TrimSpace(clause)
		kind, prob, ok := strings.Cut(clause, ":")
		if !ok {
			return nil, fmt.Errorf("engine: fault plan clause %q: want kind:p=PROB", clause)
		}
		val, ok := strings.CutPrefix(prob, "p=")
		if !ok {
			return nil, fmt.Errorf("engine: fault plan clause %q: want kind:p=PROB", clause)
		}
		p, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("engine: fault plan clause %q: %w", clause, err)
		}
		if seen[kind] {
			return nil, fmt.Errorf("engine: fault plan repeats kind %q", kind)
		}
		seen[kind] = true
		switch kind {
		case "panic":
			f.PPanic = p
		case "stall":
			f.PStall = p
		case "builderr":
			f.PBuildErr = p
		default:
			return nil, fmt.Errorf("engine: fault plan kind %q (want panic, stall or builderr)", kind)
		}
	}
	if err := f.validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// validate checks the plan's probabilities.
func (f *FaultPlan) validate() error {
	sum := 0.0
	for _, p := range []float64{f.PPanic, f.PStall, f.PBuildErr} {
		if !(p >= 0 && p <= 1) { // also rejects NaN
			return fmt.Errorf("engine: fault probability %v outside [0, 1]", p)
		}
		sum += p
	}
	if sum > 1 {
		return fmt.Errorf("engine: fault probabilities sum to %v > 1", sum)
	}
	return nil
}

// faultMix decorrelates the fault placement stream from the batch's
// trial-seed stream: a FaultPlan sharing the batch seed must not hit
// trials correlated with their simulation randomness.
const faultMix = 0x8f1bbcdcbfa53e0b

// KindFor returns the fault injected at the given global trial index
// — a pure function of (plan seed, trial), which is the whole
// determinism story: placement cannot depend on scheduling.
func (f *FaultPlan) KindFor(trial int) FaultKind {
	x := TrialSeed(f.Seed^faultMix, trial)
	p := float64(x>>11) / (1 << 53) // uniform in [0, 1)
	switch {
	case p < f.PPanic:
		return FaultPanic
	case p < f.PPanic+f.PStall:
		return FaultStall
	case p < f.PPanic+f.PStall+f.PBuildErr:
		return FaultBuildErr
	}
	return FaultNone
}

// wrapBuilder interposes fault wrappers on a stepper-team builder.
func (f *FaultPlan) wrapBuilder(build func() ([]sim.Stepper, error)) func() ([]sim.Stepper, error) {
	return func() ([]sim.Stepper, error) {
		team, err := build()
		if err != nil {
			return team, err
		}
		for _, st := range team {
			if st == nil {
				// Leave a nil-bearing team untouched; the lane
				// surfaces it as the trial's error.
				return team, nil
			}
		}
		for i, st := range team {
			team[i] = wrapFault(st)
		}
		return team, nil
	}
}

// faultHook adapts a FaultPlan to the lane's arm-interception seam.
type faultHook struct{ plan *FaultPlan }

// PreArm returns the injected builder error for the trial, or nil.
func (h faultHook) PreArm(trial int) error {
	if h.plan.KindFor(trial) == FaultBuildErr {
		return fmt.Errorf("fault injection: builder error at trial %d", trial)
	}
	return nil
}

// PostArm points every wrapper stepper of the team at the trial about
// to run on them, setting (or clearing) their pending fault.
func (h faultHook) PostArm(trial int, team []sim.Stepper) {
	kind := h.plan.KindFor(trial)
	for _, st := range team {
		if c, ok := st.(faultCarrier); ok {
			c.setFault(kind, trial)
		}
	}
}

// faultCarrier is how PostArm reaches a wrapper regardless of
// which concrete wrapper type the stepper got.
type faultCarrier interface {
	setFault(kind FaultKind, trial int)
}

// wrapFault wraps one stepper with fault interposition, preserving
// its Reusable capability: a reusable inner stepper keeps the lane's
// build-once/Reset-per-trial amortization, a plain one keeps the
// rebuild-per-trial flow. (Capability must be preserved per stepper —
// hiding Reusable would silently flip every faulted lane onto the
// rebuild path and the reuse machinery would never run under fault.)
func wrapFault(s sim.Stepper) sim.Stepper {
	if _, ok := s.(sim.Reusable); ok {
		return &reusableFaultStepper{faultStepper{inner: s}}
	}
	return &faultStepper{inner: s}
}

// stallWait is the stay budget an injected stall returns: larger than
// any round budget, small enough that round arithmetic cannot
// overflow. The runtime fast-forwards overlapping stays, so a stalled
// trial costs O(1) ticks, not O(MaxRounds).
const stallWait = int64(1) << 62

// faultStepper interposes on one agent's stepper. The pending fault
// is re-armed per trial (faultHook.PostArm), so a wrapper living across
// many lane trials injects at exactly the planned indices and runs
// the others clean.
type faultStepper struct {
	inner sim.Stepper
	kind  FaultKind
	trial int
	fired bool
}

func (s *faultStepper) setFault(kind FaultKind, trial int) {
	s.kind, s.trial, s.fired = kind, trial, false
}

func (s *faultStepper) Init(ctx *sim.StepContext) { s.inner.Init(ctx) }

// Next injects the pending fault, if any: a panic fires once on the
// trial's first acting round (of whichever agent acts first — the
// lockstep order is deterministic, so "first" is too); a stall
// replaces every action with a budget-exhausting stay.
func (s *faultStepper) Next(v *sim.View) sim.Action {
	switch s.kind {
	case FaultPanic:
		if !s.fired {
			s.fired = true
			panic(fmt.Sprintf("fault injection: panic at trial %d", s.trial))
		}
	case FaultStall:
		return sim.StayFor(stallWait)
	}
	return s.inner.Next(v)
}

// Finish honors the inner stepper's lifecycle.
func (s *faultStepper) Finish() { sim.Finish(s.inner) }

// reusableFaultStepper is faultStepper for a Reusable inner stepper.
type reusableFaultStepper struct{ faultStepper }

func (s *reusableFaultStepper) Reset(ctx *sim.StepContext) {
	s.inner.(sim.Reusable).Reset(ctx)
}
