package algo

import (
	"errors"
	"testing"

	"fnr/internal/core"
	"fnr/internal/sim"
)

func noopBuild(BuildOpts) (sim.Program, sim.Program, error) {
	p := func(e *sim.Env) {}
	return p, p, nil
}

// haltStepper halts at round 0.
type haltStepper struct{}

func (haltStepper) Init(*sim.StepContext)     {}
func (haltStepper) Next(*sim.View) sim.Action { return sim.Halt() }

func noopSteppers(BuildOpts) (sim.Stepper, sim.Stepper, error) {
	return haltStepper{}, haltStepper{}, nil
}

func TestRegisterLookupSpecs(t *testing.T) {
	Register(Spec{Name: "test-b", Order: 202, Build: noopBuild})
	Register(Spec{Name: "test-a", Order: 200, BuildSteppers: noopSteppers})
	Register(Spec{Name: "test-a2", Order: 201, Build: noopBuild})

	if _, err := Lookup("test-a"); err != nil {
		t.Fatalf("Lookup(test-a): %v", err)
	}
	if _, err := Lookup("absent"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("Lookup(absent) = %v, want ErrUnknown", err)
	}

	// A Build-only spec is lifted onto coroutine steppers.
	lifted, err := Lookup("test-b")
	if err != nil {
		t.Fatal(err)
	}
	a, b, err := lifted.Steppers(BuildOpts{})
	if err != nil || a == nil || b == nil {
		t.Fatalf("lifted Build-only spec built (%v, %v, %v)", a, b, err)
	}
	sim.Finish(b)
	sim.Finish(a)

	// Specs must come back sorted by Order.
	specs := Specs()
	idx := map[string]int{}
	for i, s := range specs {
		idx[s.Name] = i
	}
	if !(idx["test-a"] < idx["test-a2"] && idx["test-a2"] < idx["test-b"]) {
		t.Fatalf("specs out of order: %v", Names())
	}
}

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, s Spec) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		Register(s)
	}
	mustPanic("empty name", Spec{Build: noopBuild})
	mustPanic("neither builder", Spec{Name: "test-no-builder"})
	mustPanic("both builders", Spec{Name: "test-two-builders", Build: noopBuild, BuildSteppers: noopSteppers})
	Register(Spec{Name: "test-dup", Order: 300, Build: noopBuild})
	mustPanic("duplicate name", Spec{Name: "test-dup", Order: 301, Build: noopBuild})
	// A duplicate Order would renumber the public Algorithm indices —
	// in a real binary that includes an unset (zero) Order colliding
	// with built-in Order 0.
	mustPanic("duplicate order", Spec{Name: "test-order-clash", Order: 300, Build: noopBuild})
	Register(Spec{Name: "test-zero-order", Build: noopBuild}) // Order 0 free in this test binary
	mustPanic("second zero order", Spec{Name: "test-zero-order-2", Build: noopBuild})
}

func TestSteppersCapabilityCheck(t *testing.T) {
	s := Spec{Name: "test-needs-delta", Caps: Caps{NeedsDelta: true}, BuildSteppers: noopSteppers}
	if _, _, err := s.Steppers(BuildOpts{}); !errors.Is(err, ErrDeltaRequired) {
		t.Fatalf("Steppers without delta = %v, want ErrDeltaRequired", err)
	}
	if _, _, err := s.Steppers(BuildOpts{Delta: 3}); err != nil {
		t.Fatalf("Steppers with delta: %v", err)
	}
}

func TestSteppersDefaultsParams(t *testing.T) {
	var got core.Params
	s := Spec{Name: "test-params", BuildSteppers: func(o BuildOpts) (sim.Stepper, sim.Stepper, error) {
		got = o.Params
		return noopSteppers(o)
	}}
	if _, _, err := s.Steppers(BuildOpts{}); err != nil {
		t.Fatal(err)
	}
	if got == (core.Params{}) {
		t.Fatal("Steppers did not default Params")
	}
}
