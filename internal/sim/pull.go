package sim

import (
	"fmt"
	"iter"
)

// NewProgramStepper adapts a direct-style Program into a Stepper: the
// program runs on a lightweight coroutine (iter.Pull), so the
// per-acting-round handoff between the lockstep loop and the program
// is a direct context switch. It is the one host every Program runs
// on — Run wraps each of its programs in one.
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
// program-ward on next() (inside Next) and runtime-ward on yieldFn
// (inside Env.step), so exactly one of the two is ever running.
type pullProgramStepper struct {
	prog    Program
	cur     *View // the runtime's view for the acting round being processed
	next    func() (Action, bool)
	stopFn  func()
	yieldFn func(Action) bool
	final   Action // exit-derived action (halt or panic) once the coroutine ends
}

func (ps *pullProgramStepper) Init(ctx *StepContext) {
	env := &Env{
		name:    ctx.Name,
		nPrime:  ctx.NPrime,
		kt1:     ctx.NeighborIDs,
		boards:  ctx.Whiteboards,
		rng:     ctx.Rand,
		scratch: ctx.Scratch,
		host:    ps,
	}
	seq := func(yield func(Action) bool) {
		ps.yieldFn = yield
		defer func() { ps.final = exitAction(recover()) }()
		ps.prog(env)
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

// Finish unwinds the coroutine if the program is still live
// (idempotent, safe before Init) — the Finisher hook the runtime
// calls on every exit path.
func (ps *pullProgramStepper) Finish() {
	if ps.stopFn != nil {
		ps.stopFn()
	}
}

// exitAction maps a program's exit cause (the value recovered at its
// top frame) to the final action reported to the runtime. A
// Finish-driven unwind (stopSignal) maps to the zero Action, which is
// never consumed.
func exitAction(r any) Action {
	switch r {
	case nil, haltSignal:
		return Halt()
	case stopSignal:
		return Action{}
	default:
		return Abort(fmt.Errorf("program panic: %v", r))
	}
}
