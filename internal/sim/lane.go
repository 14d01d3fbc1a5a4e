package sim

import (
	"errors"
	"fmt"
)

// TrialLane is the batch engine's trial scheduler: it runs a range of
// trials of one configuration one after another on a single resident
// stepper team and TrialContext, so a worker's steppers and scratch
// (whiteboards, PCG state, walker tables) live for the whole range
// instead of one trial:
//
//   - When every stepper of the team implements Reusable, the lane
//     builds its team exactly once and Reset re-arms it per trial —
//     the builder cost is amortized away entirely.
//   - Otherwise the team is rebuilt (and the old one Finished) per
//     trial, which is always correct, just slower.
//
// The lane never changes results: ticks are the same state
// transitions a solo runTeam performs, and trials are identified by
// index, so a lane run matches running each trial alone with a fresh
// context and freshly built steppers. lane_test.go pins this.
//
// The lane holds one trial at a time on purpose. An earlier version
// kept W trials resident and ticked them round-robin; the paper
// algorithms' walker scratch is large and hot, so resident trials
// evicted each other from L1d and L2 — width 8 measured 15–35% slower
// than width 1 at every n from 256 to 8192, while baseline trials ran
// at the same speed either way.
//
// A TrialLane is not safe for concurrent use; give each worker
// goroutine its own.
type TrialLane struct {
	// Stop, if set, is polled before every trial is armed: once it
	// returns true the lane arms no further trials (a stop never tears
	// a trial mid-flight), and Run returns its watermark. The engine's
	// cancellation plumbing sets it to a context check.
	Stop func() bool
	// Hook, if set, observes every arm (see ArmHook) — the engine's
	// fault-injection seam.
	Hook ArmHook

	build    func() ([]Stepper, error)
	canReset bool          // every stepper implements Reusable (set at build)
	team     []Stepper     // the resident stepper team; nil when none is built
	tc       *TrialContext // agent positions, round counters, PCG states, scratch
	res      Result        // the reusable result box handed to emit
}

// ArmHook intercepts arming, once per trial. PreArm runs before the
// lane is touched: a non-nil error skips the trial entirely and
// surfaces as that trial's error outcome (how the engine injects
// deterministic builder faults). PostArm runs after a successful arm
// with the team that will execute the trial — the seam through
// which per-trial fault state reaches stepper wrappers the lane built
// once and re-arms many times. The team slice is the lane's; hooks
// must not retain or mutate it. Hooks must be deterministic in the
// trial index alone; the lane calls them from its Run loop only.
type ArmHook interface {
	PreArm(trial int) error
	PostArm(trial int, team []Stepper)
}

// NewTrialLane returns a lane over a pair-shaped stepper builder — the
// two-agent constructor, a thin wrapper over NewTeamLane.
func NewTrialLane(build func() (Stepper, Stepper, error)) *TrialLane {
	return NewTeamLane(func() ([]Stepper, error) {
		a, b, err := build()
		if err != nil {
			Finish(a)
			Finish(b)
			return nil, err
		}
		return []Stepper{a, b}, nil
	})
}

// NewTeamLane returns a lane over the given team builder. The builder
// must return one stepper per scenario agent, in team order; the lane
// owns the steppers it builds: call Close when done with the lane to
// honor their Finish lifecycle.
func NewTeamLane(build func() ([]Stepper, error)) *TrialLane {
	return &TrialLane{build: build, tc: NewTrialContext()}
}

// Run executes trials [from, to) of cfg in trial order, with trial t
// seeded by seedOf(t) (cfg.Seed is ignored; seed 0 normalizes to 1
// exactly as everywhere else). emit is called exactly once per trial
// with either the trial's result or its error (validation failures,
// builder errors and aborts, matching what a solo run of that trial
// would return). The *Result points at the lane's reusable box and is
// only valid during the emit call.
//
// Run may be called repeatedly on one lane (the engine calls it once
// per claimed chunk); steppers and scratch stay warm across calls.
//
// Run returns its watermark: the first trial index of [from, to) it
// did not run — to when the range completed, and the first un-armed
// index when Stop ended the run early. Every trial below the
// watermark was emitted exactly once; no trial at or above it was
// touched.
func (l *TrialLane) Run(cfg Config, seedOf func(trial int) uint64, from, to int, emit func(trial int, res *Result, err error)) int {
	from = max(from, 0)
	verr := cfg.validate()
	for t := from; t < to; t++ {
		if l.Stop != nil && l.Stop() {
			return t
		}
		err := verr
		if err == nil && l.Hook != nil {
			err = l.Hook.PreArm(t)
		}
		if err == nil {
			err = l.play(cfg, seedOf(t), t)
		}
		if err != nil {
			emit(t, nil, err)
		} else {
			emit(t, &l.res, nil)
		}
	}
	return max(from, to)
}

// play arms the lane for trial t and ticks it to the end, leaving the
// outcome in l.res. A panicking builder, Init, Reset or Next becomes
// the trial's error and quarantines the lane: the panicking code may
// have left the steppers and TrialContext scratch in any state, so
// neither is ever re-armed — the team is finished (panic-tolerantly)
// and the context rebuilt fresh, and nothing a panicking trial touched
// can influence a later trial.
func (l *TrialLane) play(cfg Config, seed uint64, t int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			l.dropTeam()
			l.tc = NewTrialContext()
			err = panicError(r)
		}
	}()
	if err := l.arm(cfg, seed); err != nil {
		return err
	}
	if l.Hook != nil {
		l.Hook.PostArm(t, l.team)
	}
	for {
		if done, err := l.tc.rt.tick(&l.res); done {
			return err
		}
	}
}

// arm readies the lane for one trial: Reset the resident team when the
// reuse contract holds, rebuild it otherwise, then prime the
// TrialContext for the seeded run.
func (l *TrialLane) arm(cfg Config, seed uint64) error {
	if l.team != nil && !l.canReset {
		for i := len(l.team) - 1; i >= 0; i-- {
			Finish(l.team[i])
		}
		l.team = nil
	}
	reuse := l.team != nil
	if !reuse {
		team, err := l.build()
		if err == nil {
			if len(team) == 0 {
				err = errors.New("sim: lane builder returned an empty team")
			}
			for _, st := range team {
				if st == nil {
					err = errors.New("sim: lane builder returned a nil stepper")
					break
				}
			}
		}
		if err != nil {
			for i := len(team) - 1; i >= 0; i-- {
				Finish(team[i])
			}
			return err
		}
		l.team = team
		l.canReset = true
		for _, st := range team {
			if _, ok := st.(Reusable); !ok {
				l.canReset = false
				break
			}
		}
	}
	if got, want := len(l.team), cfg.teamSize(); got != want {
		return fmt.Errorf("sim: lane builder returned %d steppers for a %d-agent scenario", got, want)
	}
	cfg.Seed = seed
	l.tc.arm(cfg, l.team, reuse)
	return nil
}

// dropTeam finishes the resident team in reverse team order,
// tolerating a Finish that panics (a poisoned or abandoned team may),
// and forgets it.
func (l *TrialLane) dropTeam() {
	for i := len(l.team) - 1; i >= 0; i-- {
		safeFinish(l.team[i])
	}
	l.team = nil
}

// Close finishes the resident stepper team. The lane remains usable
// afterwards (the next Run rebuilds the team).
func (l *TrialLane) Close() { l.dropTeam() }
