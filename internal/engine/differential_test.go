package engine

import (
	"encoding/json"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"

	"fnr/internal/algo"
	"fnr/internal/graph"

	_ "fnr/internal/algo/paper"
	_ "fnr/internal/baseline"
)

type diffInstance struct {
	name string
	g    *graph.Graph
}

// twinOrder offsets a program twin's Order past every real
// strategy's, so registering twins never renumbers the listing.
const twinOrder = 1000

// programTwins registers, once per test binary, a test-only oracle
// twin of every registered strategy: same name plus "~programs", same
// capabilities and Build, but steppers that host the Build programs
// on coroutines (algo.SteppersFromPrograms) instead of the strategy's
// own state machines. It returns the strategy → twin name map.
var programTwins = sync.OnceValue(func() map[string]string {
	twins := map[string]string{}
	for _, spec := range algo.Specs() {
		if spec.Order >= twinOrder {
			continue
		}
		twin := spec.Name + "~programs"
		algo.Register(algo.Spec{
			Name: twin, Order: twinOrder + spec.Order, Caps: spec.Caps,
			Build: spec.Build, BuildSteppers: algo.SteppersFromPrograms(spec.Build),
		})
		twins[spec.Name] = twin
	}
	return twins
})

// runAs runs b under the given strategy name and reports the
// outcomes and the aggregate JSON with the algorithm echo set back to
// b.Algorithm, so a twin's bytes compare directly with the original's.
func runAs(t *testing.T, b Batch, name string) ([]Outcome, []byte) {
	t.Helper()
	want := b.Algorithm
	b.Algorithm = name
	out, err := RunOutcomes(t.Context(), b)
	if err != nil {
		t.Fatalf("%s workers=%d: %v", name, b.Workers, err)
	}
	agg := aggregateOf(b, out)
	agg.Algorithm = want
	blob, err := json.Marshal(agg)
	if err != nil {
		t.Fatal(err)
	}
	return out, blob
}

// The differential suite: for every registered algorithm, across a
// seed × instance matrix, the strategy's own steppers and its program
// twin (the Build programs on coroutines) must produce identical
// per-trial Outcomes and byte-identical Aggregate JSON. This is the
// contract that keeps a single run (Rendezvous hosts Build) and a
// batch trial (the engine steps BuildSteppers) in agreement. CI runs
// it under -race, which also exercises the coroutine adapter against
// the race detector.
func TestStepperAndProgramPathsAreIdentical(t *testing.T) {
	planted, err := graph.PlantedMinDegree(96, 24, rand.New(rand.NewPCG(5, 6)))
	if err != nil {
		t.Fatal(err)
	}
	complete, err := graph.Complete(16)
	if err != nil {
		t.Fatal(err)
	}
	instances := []diffInstance{{"planted96", planted}, {"k16", complete}}

	twins := programTwins()
	for _, spec := range specsUnderTest(t) {
		for _, inst := range instances {
			for _, seed := range []uint64{1, 99} {
				sa := graph.Vertex(0)
				sb := inst.g.Adj(sa)[0]
				b := Batch{
					Graph: inst.g, StartA: sa, StartB: sb,
					Algorithm: spec, Delta: inst.g.MinDegree(),
					Trials: 6, Seed: seed, MaxRounds: 1 << 20,
				}
				fastOut, fastAgg := runAs(t, b, spec)
				slowOut, slowAgg := runAs(t, b, twins[spec])
				for i := range fastOut {
					if fastOut[i] != slowOut[i] {
						t.Errorf("%s/%s/seed%d trial %d: steppers %+v vs programs %+v",
							spec, inst.name, seed, i, fastOut[i], slowOut[i])
					}
				}
				if string(fastAgg) != string(slowAgg) {
					t.Errorf("%s/%s/seed%d: aggregate JSON differs:\nsteppers: %s\nprograms: %s",
						spec, inst.name, seed, fastAgg, slowAgg)
				}
			}
		}
	}
}

// specsUnderTest returns every registered algorithm name except the
// program twins, failing the test if the registry is unexpectedly
// empty (a differential suite that silently tests nothing is worse
// than a failing one).
func specsUnderTest(t *testing.T) []string {
	t.Helper()
	var names []string
	for _, name := range algo.Names() {
		if !strings.HasSuffix(name, "~programs") {
			names = append(names, name)
		}
	}
	if len(names) < 7 {
		t.Fatalf("registry has %d specs, expected at least the 7 built-ins: %v", len(names), names)
	}
	return names
}

// The tightened gate for the paper's two algorithms, native steppers:
// per-trial outcomes and aggregate JSON must be byte-identical across
// worker counts 1/4/16 and against the program twin — every
// combination against one reference. CI runs this under -race, which
// exercises the native machines and the worker-owned lane reuse
// against the race detector.
func TestPaperSteppersIdenticalAcrossWorkersAndPaths(t *testing.T) {
	g, sa, sb := testGraph(t)
	twins := programTwins()
	for _, name := range []string{"whiteboard", "noboard"} {
		base := Batch{
			Graph: g, StartA: sa, StartB: sb,
			Algorithm: name, Delta: g.MinDegree(),
			Trials: 24, Seed: 424, MaxRounds: 1 << 22,
		}
		var refOut []Outcome
		var refAgg []byte
		for _, strategy := range []string{name, twins[name]} {
			for _, workers := range []int{1, 4, 16} {
				b := base
				b.Workers = workers
				out, agg := runAs(t, b, strategy)
				if refOut == nil {
					refOut, refAgg = out, agg
					continue
				}
				for i := range out {
					if out[i] != refOut[i] {
						t.Errorf("%s workers=%d trial %d: %+v vs reference %+v",
							strategy, workers, i, out[i], refOut[i])
					}
				}
				if string(agg) != string(refAgg) {
					t.Errorf("%s workers=%d: aggregate JSON differs:\n%s\nreference: %s",
						strategy, workers, agg, refAgg)
				}
			}
		}
	}
}

// Batches of native and coroutine-hosted steppers alike must be
// deterministic across worker counts.
func TestStepperPathDeterministicAcrossWorkers(t *testing.T) {
	g, sa, sb := testGraph(t)
	for _, name := range []string{"sweep", "birthday", "whiteboard"} {
		base := Batch{
			Graph: g, StartA: sa, StartB: sb,
			Algorithm: name, Delta: g.MinDegree(),
			Trials: 30, Seed: 77, MaxRounds: 1 << 22,
		}
		var blobs [][]byte
		for _, workers := range []int{1, 8} {
			b := base
			b.Workers = workers
			agg, err := Run(t.Context(), b)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			blob, err := json.Marshal(agg)
			if err != nil {
				t.Fatal(err)
			}
			blobs = append(blobs, blob)
		}
		if string(blobs[0]) != string(blobs[1]) {
			t.Errorf("%s: stepper-path aggregates differ across worker counts:\n1: %s\n8: %s", name, blobs[0], blobs[1])
		}
	}
}

// programOnly names a strategy registered with a Program builder
// alone — the walkpair baseline's Build, and nothing else. It is
// registered at package initialization, so the differential suite
// covers it too.
var programOnly = func() string {
	walk, err := algo.Lookup("walkpair")
	if err != nil {
		panic(err)
	}
	algo.Register(algo.Spec{Name: "programs-only", Order: 900, Caps: walk.Caps, Build: walk.Build})
	return "programs-only"
}()

// A strategy registered with only a Program builder runs like any
// other: Register lifts its Build onto coroutine steppers, so a
// faulted batch injects its faults, and batches at workers 1/4/16
// aggregate byte-identically, faulted or not.
func TestProgramOnlySpecRunsOnLanes(t *testing.T) {
	g, sa, sb := testGraph(t)
	base := Batch{
		Graph: g, StartA: sa, StartB: sb,
		Algorithm: programOnly,
		Trials:    120, Seed: 9, MaxRounds: 1 << 12,
	}
	for _, faults := range []*FaultPlan{nil, {Seed: 3, PPanic: 0.05, PStall: 0.05, PBuildErr: 0.05}} {
		var ref []byte
		for _, workers := range []int{1, 4, 16} {
			b := base
			b.Workers, b.Faults = workers, faults
			agg, err := Run(t.Context(), b)
			if err != nil {
				t.Fatalf("faults=%v workers=%d: %v", faults != nil, workers, err)
			}
			if faults != nil && (agg.Errors == 0 || len(agg.FirstErrors) == 0) {
				t.Fatalf("workers=%d: fault plan injected nothing: %+v", workers, agg)
			}
			blob, err := json.Marshal(agg)
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = blob
				continue
			}
			if string(blob) != string(ref) {
				t.Errorf("faults=%v workers=%d: aggregate differs:\n%s\nreference: %s", faults != nil, workers, blob, ref)
			}
		}
	}
}
