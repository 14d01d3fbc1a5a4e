package sim

import (
	"errors"
	"reflect"
	"slices"
	"testing"
	"unsafe"
)

// TestActionFitsInRegisters pins Action's shape. Go's compiler keeps a
// struct in SSA registers only when it has at most four fields and
// spans at most four words (CanSSA with MaxStruct = 4, in
// cmd/compile/internal/ssa). Past either limit every Action returned
// through a stepper chain is spilled to the stack field by field and
// reloaded by the runtime's step, a store-to-load stall that cost
// about a third of every paper-algorithm round. A new field has to
// fit into the existing four.
func TestActionFitsInRegisters(t *testing.T) {
	const word = unsafe.Sizeof(uintptr(0))
	if size := unsafe.Sizeof(Action{}); size > 4*word {
		t.Errorf("Action is %d bytes, want at most %d (four words)", size, 4*word)
	}
	if n := reflect.TypeFor[Action]().NumField(); n > 4 {
		t.Errorf("Action has %d fields, want at most 4", n)
	}
}

// constStepper returns the same action on every acting round.
type constStepper struct{ act Action }

func (constStepper) Init(*StepContext) {}

func (s constStepper) Next(*View) Action { return s.act }

// Every action constructor, with and without a whiteboard write, must
// mean the same thing whether a native stepper returns it or a Program
// on the coroutine host yields it: the same Result, the same boards
// and the same exact error text. The Env idiom, where Env has one with
// the same semantics, is held to the native run too.
func TestActionsAgreeOnBothHosts(t *testing.T) {
	g := mustRing(t, 6) // every vertex has degree 2
	cfg := Config{Graph: g, StartA: 0, StartB: 3, Whiteboards: true, DisableMeeting: true, MaxRounds: 5}
	const mark = 77
	cases := []struct {
		name string
		act  Action
		env  func(e *Env) // the Env idiom for act, or nil
		a    AgentStats   // agent a's statistics on a clean run
		acts int64        // agent a's acting rounds (and writes) on a clean run
		err  string       // the exact run error, or "" for none
	}{
		{name: "Stay", act: Stay(), env: func(e *Env) { e.Stay() }, a: AgentStats{Stays: 5}, acts: 5},
		{name: "StayFor(0)", act: StayFor(0), a: AgentStats{Stays: 5}, acts: 5},
		{name: "StayFor(1<<40)", act: StayFor(1 << 40), env: func(e *Env) { e.StayFor(1 << 40) }, a: AgentStats{Stays: 5}, acts: 1},
		{name: "Move(1)", act: Move(1), env: func(e *Env) {
			if err := e.MoveToPort(1); err != nil {
				panic(err)
			}
		}, a: AgentStats{Moves: 5}, acts: 5},
		{name: "Move(2)", act: Move(2), err: "sim: agent a: moved through port 2 of a degree-2 vertex"},
		{name: "Move(-1)", act: Move(-1), err: "sim: agent a: moved through port -1 of a degree-2 vertex"},
		{name: "Halt", act: Halt(), a: AgentStats{Halted: true}, acts: 1},
		{name: "Abort", act: Abort(errors.New("impossible state")), err: "sim: agent a: impossible state"},
	}
	type outcome struct {
		res    Result // zero when the run failed
		err    string
		boards []int64
	}
	run := func(a Stepper) outcome {
		tc := NewTrialContext()
		res, err := tc.RunSteppers(cfg, a, stayStepper{})
		o := outcome{boards: slices.Clone(tc.boards)}
		if err != nil {
			o.err = err.Error()
		} else {
			o.res = *res
		}
		return o
	}
	same := func(x, y outcome) bool {
		return x.err == y.err && slices.Equal(x.boards, y.boards) && resultsEqual(&x.res, &y.res)
	}
	for _, c := range cases {
		for _, write := range []bool{false, true} {
			act, name := c.act, c.name
			if write {
				act, name = act.WithWrite(mark), name+".WithWrite"
			}
			native := run(constStepper{act})
			if native.err != c.err {
				t.Errorf("%s: native error %q, want %q", name, native.err, c.err)
				continue
			}
			if c.err == "" {
				wantWrites := int64(0)
				if write {
					wantWrites = c.acts
				}
				if native.res.A != c.a || native.res.Writes != wantWrites || native.res.Rounds != 5 {
					t.Errorf("%s: native run %+v, want agent a %+v and %d writes in 5 rounds", name, native.res, c.a, wantWrites)
				}
				if marked := slices.Contains(native.boards, mark); marked != write {
					t.Errorf("%s: board holds the mark: %v, want %v", name, marked, write)
				}
			}
			hosted := run(NewProgramStepper(func(e *Env) {
				for {
					e.step(act)
				}
			}))
			if !same(native, hosted) {
				t.Errorf("%s: native %+v and program host %+v disagree", name, native, hosted)
			}
			if c.env == nil {
				continue
			}
			idiom := run(NewProgramStepper(func(e *Env) {
				for {
					if write {
						if err := e.WriteWhiteboard(mark); err != nil {
							panic(err)
						}
					}
					c.env(e)
				}
			}))
			if !same(native, idiom) {
				t.Errorf("%s: native %+v and the Env idiom %+v disagree", name, native, idiom)
			}
		}
	}
}
