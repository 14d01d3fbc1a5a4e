package sim

import (
	"errors"
	"fmt"
)

// TrialLane is the batch engine's lockstep scheduler: it keeps up to
// W trials of the same configuration resident at once, stored as
// parallel per-slot slices (struct-of-arrays), and advances every
// resident trial by one runtime tick per sweep. A finished trial is
// emitted and its slot immediately re-armed with the next trial of
// the caller's range, so a worker's stepper teams and per-slot
// scratch (whiteboards, PCG state, walker tables) live for the whole
// range instead of one trial:
//
//   - When every stepper of the team implements Reusable, each slot
//     builds its team exactly once and Reset re-arms it per trial —
//     the builder cost is amortized away entirely.
//   - Otherwise the team is rebuilt (and the old one Finished) per
//     trial, which is always correct, just slower.
//
// The lane never changes results: each resident trial owns a full
// TrialContext (its own whiteboard array, random streams, scratch and
// lockstep runtime), ticks are the same state transitions a solo
// runTeam performs, and trials are identified by index, so the
// lane width — like the engine's worker count — affects wall-clock
// time and memory only. lane_test.go pins this.
//
// A TrialLane is not safe for concurrent use; give each worker
// goroutine its own.
type TrialLane struct {
	// Stop, if set, is polled at every refill boundary: once it
	// returns true the lane arms no further trials, drains the trials
	// already resident (a stop never tears a trial mid-flight), and
	// Run returns its watermark. The engine's cancellation plumbing
	// sets it to a context check.
	Stop func() bool
	// Hook, if set, observes every slot arm (see ArmHook) — the
	// engine's fault-injection seam.
	Hook ArmHook

	build    func() ([]Stepper, error)
	canReset bool // every stepper implements Reusable (set at build)

	// Per-slot parallel state, indexed by lane slot: the resident
	// trial (-1 = empty), the stepper team, and the TrialContext
	// holding the slot's agent positions, round counters, PCG states
	// and scratch. res is the slot's reusable result box.
	trial    []int
	steppers [][]Stepper
	built    []bool
	tcs      []*TrialContext
	res      []Result

	live int
}

// ArmHook intercepts slot arming, once per trial. PreArm runs before
// the slot is touched: a non-nil error skips the trial entirely and
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

// NewTrialLane returns a lane of the given width over a pair-shaped
// stepper builder — the historical two-agent constructor, now a thin
// wrapper over NewTeamLane.
func NewTrialLane(width int, build func() (Stepper, Stepper, error)) *TrialLane {
	return NewTeamLane(width, func() ([]Stepper, error) {
		a, b, err := build()
		if err != nil {
			Finish(a)
			Finish(b)
			return nil, err
		}
		return []Stepper{a, b}, nil
	})
}

// NewTeamLane returns a lane of the given width (clamped to ≥ 1)
// over the given team builder. The builder must return one stepper
// per scenario agent, in team order; the lane owns the steppers it
// builds: call Close when done with the lane to honor their Finish
// lifecycle.
func NewTeamLane(width int, build func() ([]Stepper, error)) *TrialLane {
	if width < 1 {
		width = 1
	}
	l := &TrialLane{
		build:    build,
		trial:    make([]int, width),
		steppers: make([][]Stepper, width),
		built:    make([]bool, width),
		tcs:      make([]*TrialContext, width),
		res:      make([]Result, width),
	}
	for s := range l.trial {
		l.trial[s] = -1
		l.tcs[s] = NewTrialContext()
	}
	return l
}

// Width returns the lane's slot count.
func (l *TrialLane) Width() int { return len(l.trial) }

// Run executes trials [from, to) of cfg in lockstep, with trial t
// seeded by seedOf(t) (cfg.Seed is ignored; seed 0 normalizes to 1
// exactly as everywhere else). emit is called exactly once per trial,
// in completion order — not trial order — with either the trial's
// result or its error (validation failures, builder errors and
// aborts, matching what a solo run of that trial would return). The
// *Result points at the slot's reusable box and is only valid during
// the emit call.
//
// Run may be called repeatedly on one lane (the engine calls it once
// per claimed chunk); steppers and scratch stay warm across calls.
//
// Run returns its watermark: the first trial index of [from, to) it
// did not run — to when the range completed, and the first un-armed
// index when Stop ended the run early. Every trial below the
// watermark was emitted exactly once (resident trials drain before
// Run returns); no trial at or above it was touched.
func (l *TrialLane) Run(cfg Config, seedOf func(trial int) uint64, from, to int, emit func(trial int, res *Result, err error)) int {
	if from < 0 {
		from = 0
	}
	if from >= to {
		return from
	}
	if l.Stop != nil && l.Stop() {
		return from
	}
	if err := cfg.validate(); err != nil {
		for t := from; t < to; t++ {
			emit(t, nil, err)
		}
		return to
	}
	next := from
	for s := range l.trial {
		next = l.refill(s, cfg, seedOf, next, to, emit)
	}
	for l.live > 0 {
		for s := range l.trial {
			t := l.trial[s]
			if t < 0 {
				continue
			}
			done, err := l.tickSlot(s)
			if !done {
				continue
			}
			l.trial[s] = -1
			l.live--
			if err != nil {
				emit(t, nil, err)
			} else {
				emit(t, &l.res[s], nil)
			}
			next = l.refill(s, cfg, seedOf, next, to, emit)
		}
	}
	return next
}

// tickSlot advances slot s by one runtime tick, converting a stepper
// panic into the trial's error and quarantining the slot: a panicking
// Next may have left the slot's steppers and TrialContext scratch in
// any state, so neither is ever re-armed — the team is finished
// (panic-tolerantly) and the context rebuilt fresh.
func (l *TrialLane) tickSlot(s int) (done bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			l.quarantine(s)
			done, err = true, panicError(r)
		}
	}()
	return l.tcs[s].rt.tick(&l.res[s])
}

// refill arms slot s with successive trials starting at next until
// one arms successfully or the range [next, to) drains, emitting an
// error outcome for every trial whose arm failed (builder errors and
// PreArm vetoes — exactly how the one-at-a-time path surfaces them).
// It returns the new next. A Stop request is honored here, at the
// refill boundary: the slot is simply left empty.
func (l *TrialLane) refill(s int, cfg Config, seedOf func(int) uint64, next, to int, emit func(int, *Result, error)) int {
	if l.Stop != nil && l.Stop() {
		return next
	}
	for next < to {
		t := next
		next++
		if l.Hook != nil {
			if err := l.Hook.PreArm(t); err != nil {
				emit(t, nil, err)
				continue
			}
		}
		if err := l.armSlot(s, cfg, seedOf(t)); err != nil {
			emit(t, nil, err)
			continue
		}
		if l.Hook != nil {
			l.Hook.PostArm(t, l.steppers[s])
		}
		l.trial[s] = t
		l.live++
		break
	}
	return next
}

// armSlot is arm with panic isolation: a panicking builder, Init or
// Reset quarantines the slot and surfaces as the trial's error.
func (l *TrialLane) armSlot(s int, cfg Config, seed uint64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			l.quarantine(s)
			err = panicError(r)
		}
	}()
	return l.arm(s, cfg, seed)
}

// quarantine abandons slot s's possibly-poisoned state after a panic:
// the stepper team is finished (tolerating Finish itself panicking)
// and never re-armed, and the slot's TrialContext — whiteboard array,
// RNG state, agent scratch, runtime — is replaced wholesale, so
// nothing a panicking trial touched can influence a later trial.
func (l *TrialLane) quarantine(s int) {
	if l.built[s] {
		for i := len(l.steppers[s]) - 1; i >= 0; i-- {
			safeFinish(l.steppers[s][i])
		}
	}
	l.built[s] = false
	l.steppers[s] = nil
	l.trial[s] = -1
	l.tcs[s] = NewTrialContext()
}

// arm readies slot s for one trial: Reset the resident team when the
// reuse contract holds, rebuild it otherwise, then prime the slot's
// TrialContext for the seeded run.
func (l *TrialLane) arm(s int, cfg Config, seed uint64) error {
	if l.built[s] && !l.canReset {
		for i := len(l.steppers[s]) - 1; i >= 0; i-- {
			Finish(l.steppers[s][i])
		}
		l.built[s] = false
	}
	reuse := l.built[s]
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
		l.steppers[s] = team
		l.built[s] = true
		l.canReset = true
		for _, st := range team {
			if _, ok := st.(Reusable); !ok {
				l.canReset = false
				break
			}
		}
	}
	if got, want := len(l.steppers[s]), cfg.teamSize(); got != want {
		return fmt.Errorf("sim: lane builder returned %d steppers for a %d-agent scenario", got, want)
	}
	cfg.Seed = seed
	l.tcs[s].arm(cfg, l.steppers[s], reuse)
	return nil
}

// Close finishes every built stepper team and empties the lane. The
// lane remains usable afterwards (slots rebuild on the next Run).
// Teardown tolerates a Finish panic (a stopped run may leave slots
// whose steppers were abandoned mid-trial).
func (l *TrialLane) Close() {
	for s := range l.steppers {
		if !l.built[s] {
			continue
		}
		for i := len(l.steppers[s]) - 1; i >= 0; i-- {
			safeFinish(l.steppers[s][i])
		}
		l.built[s] = false
		l.steppers[s] = nil
		l.trial[s] = -1
	}
	l.live = 0
}
