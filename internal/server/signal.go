package server

import (
	"context"
	"os"
	"os/signal"
	"syscall"
)

// SignalContext returns a copy of parent cancelled on the first
// SIGINT or SIGTERM — the one drain trigger shared by the daemon and
// the CLIs. Cancellation propagates into the engine's entry points,
// which stop at the next chunk boundary and flush checkpoint journals
// through the final-flush path, so `experiments -tail` and fnrd both
// honor an interrupt through this single code path. The
// returned stop function releases the signal registration (a second
// signal after stop kills the process with the default disposition —
// the escape hatch from a wedged drain).
func SignalContext(parent context.Context) (context.Context, context.CancelFunc) {
	return signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
}
