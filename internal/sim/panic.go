package sim

import "fmt"

// panicError formats a recovered panic value as the error a panicking
// trial surfaces: the single definition of that message, which the
// engine's first-error reporting keys on.
func panicError(r any) error {
	return fmt.Errorf("sim: trial panicked: %v", r)
}

// safeFinish is Finish hardened against a poisoned stepper: a trial
// that panicked mid-run may have left its steppers in a state where
// even the Finish hook panics, and quarantine teardown must not let
// that second panic escape the lane.
func safeFinish(s Stepper) {
	defer func() { _ = recover() }()
	Finish(s)
}
