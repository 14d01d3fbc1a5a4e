package engine

import (
	"encoding/json"
	"errors"
	"testing"

	"fnr/internal/algo"
	"fnr/internal/sim"

	_ "fnr/internal/algo/paper"
)

// finishCountingStepper records whether its Finish hook ran.
type finishCountingStepper struct{ finished *int }

func (s finishCountingStepper) Init(*sim.StepContext)     {}
func (s finishCountingStepper) Next(*sim.View) sim.Action { return sim.Halt() }
func (s finishCountingStepper) Finish()                   { *s.finished++ }

// vandalStepper dirties the worker context as hard as a stepper can —
// whiteboard writes, junk parked on the scratch slot — then aborts
// the run.
type vandalStepper struct{ rounds int }

func (s *vandalStepper) Init(ctx *sim.StepContext) {
	// Poison the agent's scratch slot with a foreign type: the next
	// real trial must cope (it type-asserts and rebuilds) without its
	// results changing.
	ctx.Scratch.Set("vandal junk")
}

func (s *vandalStepper) Next(v *sim.View) sim.Action {
	if s.rounds <= 0 {
		return sim.Abort(errors.New("vandal abort"))
	}
	s.rounds--
	return sim.Stay().WithWrite(424242)
}

// panickingStepper dirties scratch like the vandal, then panics out
// of Next entirely — the worst a trial can do to its worker.
type panickingStepper struct{ rounds int }

func (s *panickingStepper) Init(ctx *sim.StepContext) {
	ctx.Scratch.Set("panic junk")
}

func (s *panickingStepper) Next(v *sim.View) sim.Action {
	if s.rounds <= 0 {
		panic("deliberate mid-batch panic")
	}
	s.rounds--
	return sim.Stay().WithWrite(171717)
}

// TestBuilderErrorMidBatchLeavesWorkerContextClean is the satellite
// gate for engine batch error paths: a stepper-builder error (or an
// aborting, whiteboard-scribbling, scratch-poisoning trial) in the
// middle of a worker's trial sequence must not leave the worker-owned
// TrialContext in a state that influences later trials — the
// error-then-retry sequence must reproduce the clean batch's outcomes
// and aggregate JSON byte for byte.
func TestBuilderErrorMidBatchLeavesWorkerContextClean(t *testing.T) {
	g, sa, sb := testGraph(t)
	for _, name := range []string{"whiteboard", "noboard"} {
		base := Batch{
			Graph: g, StartA: sa, StartB: sb,
			Algorithm: name, Delta: g.MinDegree(),
			Trials: 6, Seed: 5, MaxRounds: 1 << 22, Workers: 1,
		}
		spec, opts, err := base.prepare()
		if err != nil {
			t.Fatal(err)
		}

		// Reference: the six trials on one clean shared context.
		clean := sim.NewTrialContext()
		var cleanOut []Outcome
		for i := 0; i < base.Trials; i++ {
			cleanOut = append(cleanOut, soloTrial(base, spec, opts, clean, i))
		}

		// Disturbed: the same six trials on one shared context, with a
		// builder failure and a vandal trial injected after trial 0.
		finished := 0
		brokenSpec := algo.Spec{
			Name: "broken", Caps: spec.Caps,
			BuildSteppers: func(algo.BuildOpts) (sim.Stepper, sim.Stepper, error) {
				return finishCountingStepper{&finished}, nil, errors.New("mid-batch builder failure")
			},
		}
		vandalSpec := algo.Spec{
			Name: "vandal", Caps: algo.Caps{NeighborIDs: true, Whiteboards: true},
			BuildSteppers: func(algo.BuildOpts) (sim.Stepper, sim.Stepper, error) {
				return &vandalStepper{rounds: 4}, &vandalStepper{rounds: 6}, nil
			},
		}
		dirty := sim.NewTrialContext()
		var dirtyOut []Outcome
		dirtyOut = append(dirtyOut, soloTrial(base, spec, opts, dirty, 0))
		if out := soloTrial(base, brokenSpec, opts, dirty, 99); !out.Err {
			t.Fatalf("%s: builder failure did not produce an error outcome: %+v", name, out)
		}
		if finished != 1 {
			t.Errorf("%s: partially built stepper's Finish ran %d times, want 1", name, finished)
		}
		if out := soloTrial(base, vandalSpec, opts, dirty, 99); !out.Err {
			t.Fatalf("%s: vandal trial did not produce an error outcome: %+v", name, out)
		}
		for i := 1; i < base.Trials; i++ {
			dirtyOut = append(dirtyOut, soloTrial(base, spec, opts, dirty, i))
		}

		for i := range cleanOut {
			if cleanOut[i] != dirtyOut[i] {
				t.Errorf("%s trial %d: outcome diverged after mid-batch errors: clean %+v vs dirty %+v",
					name, i, cleanOut[i], dirtyOut[i])
			}
		}
		cleanAgg, err := json.Marshal(aggregateOf(base, cleanOut))
		if err != nil {
			t.Fatal(err)
		}
		dirtyAgg, err := json.Marshal(aggregateOf(base, dirtyOut))
		if err != nil {
			t.Fatal(err)
		}
		if string(cleanAgg) != string(dirtyAgg) {
			t.Errorf("%s: aggregate JSON diverged after an error-then-retry batch:\nclean: %s\ndirty: %s",
				name, cleanAgg, dirtyAgg)
		}
	}
}

// TestPanicMidBatchQuarantinesWorkerContext extends the mid-batch
// hygiene gate to panics on the engine's lane: a trial that
// scribbles on its TrialContext and then panics out of Next must
// surface as an error outcome carrying the panic message, and every
// later trial on the same lane must reproduce the clean batch byte
// for byte. (That the lane quarantines itself after a panic — stepper
// team finished and rebuilt, TrialContext replaced — is pinned by
// internal/sim's TestLanePanicQuarantinesSlot.)
func TestPanicMidBatchQuarantinesWorkerContext(t *testing.T) {
	g, sa, sb := testGraph(t)
	for _, name := range []string{"whiteboard", "noboard"} {
		base := Batch{
			Graph: g, StartA: sa, StartB: sb,
			Algorithm: name, Delta: g.MinDegree(),
			Trials: 6, Seed: 5, MaxRounds: 1 << 22, Workers: 1,
		}
		spec, opts, err := base.prepare()
		if err != nil {
			t.Fatal(err)
		}
		cfg := trialConfig(base, spec, 0)
		seedOf := func(i int) uint64 { return TrialSeed(base.Seed, i) }
		paper := func() (sim.Stepper, sim.Stepper, error) { return spec.Steppers(opts) }
		runOn := func(lane *sim.TrialLane, from, to int) []Outcome {
			out := make([]Outcome, to-from)
			lane.Run(cfg, seedOf, from, to, func(i int, res *sim.Result, err error) { out[i-from] = OutcomeOf(res, err) })
			return out
		}

		clean := sim.NewTrialLane(paper)
		cleanOut := runOn(clean, 0, base.Trials)
		clean.Close()

		// The dirty lane's builder is swapped between runs; Close
		// drops the built team (so the next Run rebuilds from the
		// current builder) but keeps the lane's TrialContext.
		build := paper
		dirty := sim.NewTrialLane(func() (sim.Stepper, sim.Stepper, error) { return build() })
		defer dirty.Close()
		dirtyOut := runOn(dirty, 0, 1)
		dirty.Close()
		build = func() (sim.Stepper, sim.Stepper, error) {
			return &panickingStepper{rounds: 3}, &panickingStepper{rounds: 5}, nil
		}
		out := runOn(dirty, 99, 100)[0]
		if !out.Err {
			t.Fatalf("%s: panicking trial did not produce an error outcome: %+v", name, out)
		}
		if want := "sim: trial panicked: deliberate mid-batch panic"; out.Msg != want {
			t.Errorf("%s: panic outcome message %q, want %q", name, out.Msg, want)
		}
		dirty.Close()
		build = paper
		dirtyOut = append(dirtyOut, runOn(dirty, 1, base.Trials)...)

		for i := range cleanOut {
			if cleanOut[i] != dirtyOut[i] {
				t.Errorf("%s trial %d: outcome diverged after a mid-batch panic: clean %+v vs dirty %+v",
					name, i, cleanOut[i], dirtyOut[i])
			}
		}
		cleanAgg, _ := json.Marshal(aggregateOf(base, cleanOut))
		dirtyAgg, _ := json.Marshal(aggregateOf(base, dirtyOut))
		if string(cleanAgg) != string(dirtyAgg) {
			t.Errorf("%s: aggregate JSON diverged after a panic-then-retry batch:\nclean: %s\ndirty: %s",
				name, cleanAgg, dirtyAgg)
		}
	}
}
