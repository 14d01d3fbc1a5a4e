package sim

import "iter"

// NewProgramStepper adapts a direct-style Program into a Stepper
// without giving up the stepper fast path: the program runs on a
// lightweight coroutine (iter.Pull), so the per-acting-round handoff
// between the lockstep loop and the program is a direct context
// switch instead of the two unbuffered-channel operations (plus
// scheduler wakeups) the goroutine path pays. Observable behavior —
// actions, RNG draws, round accounting, panic and Halt handling — is
// identical to running the same Program under Run.
//
// This is how a strategy registered with Programs alone runs in
// batches; strategies wanting the last word in trial throughput
// implement Stepper natively instead (see internal/baseline for
// examples, and README.md, "Writing a fast strategy"). The engine's
// differential suite holds every native stepper to byte-identical
// results against its Programs hosted here.
func NewProgramStepper(prog Program) Stepper {
	return &pullProgramStepper{prog: prog}
}

// pullProgramStepper hosts a Program on a coroutine. Control moves
// program-ward on next() (inside Next) and runtime-ward on yield
// (inside Env.step), so exactly one of the two is ever running — the
// same lockstep contract as the channel adapter, minus the scheduler.
type pullProgramStepper struct {
	prog    Program
	env     *Env
	cur     *View // the runtime's view for the acting round being processed
	next    func() (Action, bool)
	stopFn  func()
	yieldFn func(Action) bool
	final   Action // exit-derived action (halt or panic) once the coroutine ends
}

func (ps *pullProgramStepper) Init(ctx *StepContext) {
	ps.env = &Env{
		name:    ctx.Name,
		nPrime:  ctx.NPrime,
		kt1:     ctx.NeighborIDs,
		boards:  ctx.Whiteboards,
		rng:     ctx.Rand,
		scratch: ctx.Scratch,
		pull:    ps,
	}
	seq := func(yield func(Action) bool) {
		ps.yieldFn = yield
		defer func() {
			// A Finish()-driven unwind (stopSignal) also lands here;
			// its final action is never consumed.
			ps.final, _ = exitAction(recover())
		}()
		ps.prog(ps.env)
	}
	ps.next, ps.stopFn = iter.Pull(iter.Seq[Action](seq))
}

func (ps *pullProgramStepper) Next(v *View) Action {
	ps.cur = v
	act, ok := ps.next()
	if !ok {
		// The program returned, halted, or panicked since its last
		// action; report how it exited.
		return ps.final
	}
	return act
}

// yield hands act to the runtime and suspends the program until its
// next acting round; it reports false when the run is shutting down.
func (ps *pullProgramStepper) yield(act Action) bool { return ps.yieldFn(act) }

// Finish unwinds the coroutine if the program is still live
// (idempotent, safe before Init) — the Finisher hook the runtime
// calls on every exit path.
func (ps *pullProgramStepper) Finish() {
	if ps.stopFn != nil {
		ps.stopFn()
	}
}
