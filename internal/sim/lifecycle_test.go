package sim

import (
	"errors"
	gort "runtime"
	"testing"
	"time"

	"fnr/internal/graph"
)

// finishProbe wraps a stepper and records lifecycle calls.
type finishProbe struct {
	inner    Stepper
	finished int
}

func (p *finishProbe) Init(ctx *StepContext) {
	if p.inner != nil {
		p.inner.Init(ctx)
	}
}

func (p *finishProbe) Next(v *View) Action {
	if p.inner != nil {
		return p.inner.Next(v)
	}
	return Halt()
}

func (p *finishProbe) Finish() { p.finished++ }

// abortAfter aborts the run after n acting rounds.
type abortAfter struct{ n int }

func (s *abortAfter) Init(*StepContext) {}
func (s *abortAfter) Next(*View) Action {
	if s.n <= 0 {
		return Abort(errors.New("test abort"))
	}
	s.n--
	return Stay()
}

// TestFinishRunsOnEveryExitPath pins the Finisher contract: a stepper's
// Finish hook runs exactly once per run, on normal completion, on
// MaxRounds exhaustion, on abort, and even when the configuration is
// rejected before round 0.
func TestFinishRunsOnEveryExitPath(t *testing.T) {
	g, err := graph.Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	valid := Config{Graph: g, StartA: 0, StartB: 1, MaxRounds: 8}
	cases := []struct {
		name    string
		cfg     Config
		a, b    Stepper
		wantErr bool
	}{
		{"normal halt", valid, &finishProbe{}, &finishProbe{}, false},
		{"max rounds", valid, &finishProbe{inner: stayerStepper{}}, &finishProbe{inner: stayerStepper{}}, false},
		{"abort", valid, &finishProbe{inner: &abortAfter{n: 2}}, &finishProbe{inner: stayerStepper{}}, true},
		{"nil graph", Config{}, &finishProbe{}, &finishProbe{}, true},
		{"start out of range", Config{Graph: g, StartA: 99, StartB: 1}, &finishProbe{}, &finishProbe{}, true},
	}
	for _, tc := range cases {
		_, err := RunSteppers(tc.cfg, tc.a, tc.b)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: err = %v, wantErr = %v", tc.name, err, tc.wantErr)
		}
		for which, st := range map[string]Stepper{"a": tc.a, "b": tc.b} {
			if n := st.(*finishProbe).finished; n != 1 {
				t.Errorf("%s: agent %s Finish ran %d times, want exactly 1", tc.name, which, n)
			}
		}
	}
	// The standalone helper must be safe on nil and on steppers without
	// the hook.
	Finish(nil)
	Finish(stayerStepper{})
}

// stayerStepper never halts; every run with it exhausts MaxRounds.
type stayerStepper struct{}

func (stayerStepper) Init(*StepContext) {}
func (stayerStepper) Next(*View) Action { return Stay() }

// endlessMover is a Program that never returns: the adapter hosting it
// must be torn down by the runtime when the trial ends early.
func endlessMover(e *Env) {
	for {
		if err := e.MoveToPort(0); err != nil {
			panic(err)
		}
	}
}

// TestProgramAdaptersDoNotLeakOnEarlyTrialEnd is the leak gate of the
// stepper lifecycle: a batch whose every trial times out mid-program
// must leave no live iter.Pull coroutines behind. A started coroutine
// counts as a goroutine, so gort.NumGoroutine is the measurement.
func TestProgramAdaptersDoNotLeakOnEarlyTrialEnd(t *testing.T) {
	g, err := graph.Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Graph: g, StartA: 0, StartB: 1, MaxRounds: 16, DisableMeeting: true}
	before := gort.NumGoroutine()
	for seed := uint64(1); seed <= 64; seed++ {
		c := cfg
		c.Seed = seed
		res, err := RunSteppers(c, NewProgramStepper(endlessMover), NewProgramStepper(endlessMover))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Met || res.Rounds != cfg.MaxRounds {
			t.Fatalf("seed %d: trial did not time out as designed: %+v", seed, res)
		}
	}
	// Teardown is synchronous (the coroutine unwinds inline), but give
	// the scheduler a grace window before declaring a leak.
	deadline := time.Now().Add(5 * time.Second)
	for {
		gort.GC()
		if after := gort.NumGoroutine(); after <= before {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the batch, %d after — program coroutines leaked", before, after)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
