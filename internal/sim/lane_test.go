package sim

import (
	"errors"
	"testing"
)

// reusableWalkStepper is walkStepper plus the lane reuse contract.
type reusableWalkStepper struct{ walkStepper }

func (s *reusableWalkStepper) Reset(ctx *StepContext) { s.Init(ctx) }

// laneSeed mirrors the engine's per-trial seed derivation shape: any
// injective map of trial index to seed works for these tests.
func laneSeed(t int) uint64 { return uint64(t)*2654435761 + 17 }

// TestLaneMatchesSoloRuns pins the lane's core guarantee: running a
// range of trials through a TrialLane — reusable or not — produces
// exactly the results of running each trial alone with a fresh
// context and freshly built steppers.
func TestLaneMatchesSoloRuns(t *testing.T) {
	g := mustComplete(t, 12)
	cfg := Config{Graph: g, StartA: 0, StartB: 7, MaxRounds: 100000}
	const trials = 40

	want := make([]*Result, trials)
	for i := range want {
		c := cfg
		c.Seed = laneSeed(i)
		res, err := RunSteppers(c, &walkStepper{}, &walkStepper{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	builders := map[string]func() (Stepper, Stepper, error){
		"reusable": func() (Stepper, Stepper, error) {
			return &reusableWalkStepper{}, &reusableWalkStepper{}, nil
		},
		"rebuild": func() (Stepper, Stepper, error) {
			return &walkStepper{}, &walkStepper{}, nil
		},
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			lane := NewTrialLane(build)
			defer lane.Close()
			got := make([]*Result, trials)
			// Two chunked calls on one lane, like the engine's chunk
			// claiming, to cover warm re-Run.
			emit := func(trial int, res *Result, err error) {
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if got[trial] != nil {
					t.Fatalf("trial %d emitted twice", trial)
				}
				c := *res
				got[trial] = &c
			}
			lane.Run(cfg, laneSeed, 0, trials/2, emit)
			lane.Run(cfg, laneSeed, trials/2, trials, emit)
			for i := range want {
				if got[i] == nil {
					t.Fatalf("trial %d never emitted", i)
				}
				if !resultsEqual(got[i], want[i]) {
					t.Errorf("trial %d: lane %+v != solo %+v", i, *got[i], *want[i])
				}
			}
		})
	}
}

// TestLaneBuilderAmortization pins the reuse contract's economics:
// a Reusable pair is built once per lane, a plain pair once per
// trial.
func TestLaneBuilderAmortization(t *testing.T) {
	g := mustComplete(t, 8)
	cfg := Config{Graph: g, StartA: 0, StartB: 3, MaxRounds: 100000}
	const trials = 20

	count := func(build func() (Stepper, Stepper, error)) int {
		n := 0
		lane := NewTrialLane(func() (Stepper, Stepper, error) {
			n++
			return build()
		})
		defer lane.Close()
		lane.Run(cfg, laneSeed, 0, trials, func(_ int, _ *Result, err error) {
			if err != nil {
				t.Fatal(err)
			}
		})
		return n
	}

	if n := count(func() (Stepper, Stepper, error) {
		return &reusableWalkStepper{}, &reusableWalkStepper{}, nil
	}); n != 1 {
		t.Errorf("reusable pair: %d builds, want 1 (one per lane)", n)
	}
	if n := count(func() (Stepper, Stepper, error) {
		return &walkStepper{}, &walkStepper{}, nil
	}); n != trials {
		t.Errorf("plain pair: %d builds, want %d (one per trial)", n, trials)
	}
}

// TestLaneBuilderErrors: a failing builder surfaces as a per-trial
// error outcome, exactly as the one-at-a-time path reports it, and
// never stalls the rest of the range.
func TestLaneBuilderErrors(t *testing.T) {
	g := mustComplete(t, 8)
	cfg := Config{Graph: g, StartA: 0, StartB: 3, MaxRounds: 100000}
	boom := errors.New("boom")
	calls := 0
	lane := NewTrialLane(func() (Stepper, Stepper, error) {
		calls++
		if calls%2 == 0 {
			return nil, nil, boom
		}
		return &walkStepper{}, &walkStepper{}, nil
	})
	defer lane.Close()

	const trials = 10
	okTrials, errTrials := 0, 0
	lane.Run(cfg, laneSeed, 0, trials, func(trial int, res *Result, err error) {
		switch {
		case err != nil:
			if !errors.Is(err, boom) {
				t.Errorf("trial %d: error %v, want %v", trial, err, boom)
			}
			errTrials++
		case res == nil:
			t.Errorf("trial %d: nil result without error", trial)
		default:
			okTrials++
		}
	})
	if okTrials+errTrials != trials {
		t.Fatalf("emitted %d outcomes, want %d", okTrials+errTrials, trials)
	}
	if errTrials == 0 || okTrials == 0 {
		t.Fatalf("want a mix of successes and failures, got %d ok / %d err", okTrials, errTrials)
	}
}

// TestLaneNilStepperBuilder: a builder returning nil steppers without
// an error still yields a per-trial error, not a panic.
func TestLaneNilStepperBuilder(t *testing.T) {
	g := mustComplete(t, 8)
	cfg := Config{Graph: g, StartA: 0, StartB: 3, MaxRounds: 100000}
	lane := NewTrialLane(func() (Stepper, Stepper, error) {
		return nil, nil, nil
	})
	defer lane.Close()
	emitted := 0
	lane.Run(cfg, laneSeed, 0, 4, func(trial int, res *Result, err error) {
		emitted++
		if err == nil {
			t.Errorf("trial %d: want error for nil steppers", trial)
		}
	})
	if emitted != 4 {
		t.Fatalf("emitted %d outcomes, want 4", emitted)
	}
}

// armedPanicStepper is a reusable walk stepper that panics out of
// Next when its fire flag is set — armed per trial through the lane's
// PostArm hook, the way the engine's fault wrappers work.
type armedPanicStepper struct {
	reusableWalkStepper
	fire bool
}

func (s *armedPanicStepper) Next(v *View) Action {
	if s.fire {
		s.fire = false
		panic("lane slot panic")
	}
	return s.walkStepper.Next(v)
}

// panicAtTrialHook arms the panic on one specific trial.
type panicAtTrialHook struct{ target int }

func (h panicAtTrialHook) PreArm(int) error { return nil }
func (h panicAtTrialHook) PostArm(trial int, team []Stepper) {
	if p, ok := team[0].(*armedPanicStepper); ok {
		p.fire = trial == h.target
	}
}

// TestLanePanicQuarantinesSlot: a panicking trial surfaces as that
// trial's error, the lane is quarantined — the stepper pair is
// abandoned and rebuilt, never re-armed — and every other trial of
// the range still matches its solo run exactly.
func TestLanePanicQuarantinesSlot(t *testing.T) {
	g := mustComplete(t, 12)
	cfg := Config{Graph: g, StartA: 0, StartB: 7, MaxRounds: 100000}
	const trials, target = 20, 7

	want := make([]*Result, trials)
	for i := range want {
		c := cfg
		c.Seed = laneSeed(i)
		res, err := RunSteppers(c, &walkStepper{}, &walkStepper{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	builds := 0
	lane := NewTrialLane(func() (Stepper, Stepper, error) {
		builds++
		return &armedPanicStepper{}, &armedPanicStepper{}, nil
	})
	defer lane.Close()
	lane.Hook = panicAtTrialHook{target: target}
	got := make([]*Result, trials)
	var panicErr error
	wm := lane.Run(cfg, laneSeed, 0, trials, func(trial int, res *Result, err error) {
		if trial == target {
			panicErr = err
			return
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		c := *res
		got[trial] = &c
	})
	if wm != trials {
		t.Fatalf("watermark %d, want %d (a panic must not stop the range)", wm, trials)
	}
	if panicErr == nil || panicErr.Error() != "sim: trial panicked: lane slot panic" {
		t.Fatalf("target trial error = %v, want the panic message", panicErr)
	}
	for i := range want {
		if i == target {
			continue
		}
		if got[i] == nil {
			t.Fatalf("trial %d never emitted", i)
		}
		if !resultsEqual(got[i], want[i]) {
			t.Errorf("trial %d: post-panic lane %+v != solo %+v", i, *got[i], *want[i])
		}
	}
	// Reusable steppers build once; the quarantined lane rebuilds
	// exactly once more.
	if builds != 2 {
		t.Errorf("%d builds, want 2 (the first build plus the quarantine rebuild)", builds)
	}
}

// TestLaneStopWatermark: Stop ends the run before an arm; the
// watermark is the first un-armed trial, everything below it was
// emitted exactly once, nothing at or above it was touched.
func TestLaneStopWatermark(t *testing.T) {
	g := mustComplete(t, 12)
	cfg := Config{Graph: g, StartA: 0, StartB: 7, MaxRounds: 100000}
	const trials, stopAfter = 400, 25

	lane := NewTrialLane(func() (Stepper, Stepper, error) {
		return &reusableWalkStepper{}, &reusableWalkStepper{}, nil
	})
	defer lane.Close()
	emitted := map[int]int{}
	stop := false
	lane.Stop = func() bool { return stop }
	wm := lane.Run(cfg, laneSeed, 0, trials, func(trial int, res *Result, err error) {
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		emitted[trial]++
		if len(emitted) >= stopAfter {
			stop = true
		}
	})
	if wm >= trials || wm < stopAfter {
		t.Fatalf("watermark %d outside the expected [%d, %d) window", wm, stopAfter, trials)
	}
	for trial := 0; trial < wm; trial++ {
		if emitted[trial] != 1 {
			t.Errorf("trial %d below watermark %d emitted %d times, want 1", trial, wm, emitted[trial])
		}
	}
	for trial := range emitted {
		if trial >= wm {
			t.Errorf("trial %d at/above watermark %d was emitted", trial, wm)
		}
	}
	// A stopped lane stays stopped: the next Run arms nothing.
	if wm2 := lane.Run(cfg, laneSeed, wm, trials, func(int, *Result, error) {
		t.Error("stopped lane emitted a trial")
	}); wm2 != wm {
		t.Errorf("stopped lane advanced its watermark %d → %d", wm, wm2)
	}
	// Clearing Stop resumes from the watermark; the union covers the
	// range exactly once.
	lane.Stop = nil
	lane.Run(cfg, laneSeed, wm, trials, func(trial int, res *Result, err error) {
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		emitted[trial]++
	})
	for trial := 0; trial < trials; trial++ {
		if emitted[trial] != 1 {
			t.Errorf("trial %d emitted %d times across stop+resume, want 1", trial, emitted[trial])
		}
	}
}

// TestLaneValidationErrors: an invalid configuration is reported for
// every trial of the range without building any steppers.
func TestLaneValidationErrors(t *testing.T) {
	builds := 0
	lane := NewTrialLane(func() (Stepper, Stepper, error) {
		builds++
		return &walkStepper{}, &walkStepper{}, nil
	})
	defer lane.Close()
	emitted := 0
	lane.Run(Config{}, laneSeed, 0, 6, func(trial int, res *Result, err error) {
		emitted++
		if err == nil || res != nil {
			t.Errorf("trial %d: want validation error, got res=%v err=%v", trial, res, err)
		}
	})
	if emitted != 6 {
		t.Fatalf("emitted %d outcomes, want 6", emitted)
	}
	if builds != 0 {
		t.Errorf("builder ran %d times on an invalid config, want 0", builds)
	}
}
