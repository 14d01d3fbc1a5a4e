package engine

import (
	"encoding/json"
	"math/rand/v2"
	"testing"

	"fnr/internal/algo"
	"fnr/internal/graph"
	"fnr/internal/sim"

	_ "fnr/internal/algo/paper"
	_ "fnr/internal/baseline"
)

// The single-run contract: for every registered strategy, across a
// seed × instance matrix, each batch trial equals a solo
// sim.RunSteppers run of freshly built spec.Steppers under the spec's
// capabilities at TrialSeed(seed, i) — exactly what fnr.Rendezvous
// runs at that seed. The lane's stepper reuse, trial seeding and
// reduction thus cannot make a batch disagree with a single run.
func TestBatchTrialsMatchSoloRuns(t *testing.T) {
	planted, err := graph.PlantedMinDegree(96, 24, rand.New(rand.NewPCG(5, 6)))
	if err != nil {
		t.Fatal(err)
	}
	complete, err := graph.Complete(16)
	if err != nil {
		t.Fatal(err)
	}
	names := algo.Names()
	if len(names) < 7 {
		t.Fatalf("registry has %d specs, expected at least the 7 built-ins: %v", len(names), names)
	}
	for _, name := range names {
		spec, err := algo.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, inst := range []struct {
			name string
			g    *graph.Graph
		}{{"planted96", planted}, {"k16", complete}} {
			for _, seed := range []uint64{1, 99} {
				b := Batch{
					Graph: inst.g, StartA: 0, StartB: inst.g.Adj(0)[0],
					Algorithm: name, Delta: inst.g.MinDegree(),
					Trials: 6, Seed: seed, MaxRounds: 1 << 20,
				}
				out, err := RunOutcomes(t.Context(), b)
				if err != nil {
					t.Fatalf("%s/%s/seed%d: %v", name, inst.name, seed, err)
				}
				for i, got := range out {
					a, bb, err := spec.Steppers(algo.BuildOpts{Delta: b.Delta})
					if err != nil {
						t.Fatal(err)
					}
					want := OutcomeOf(sim.RunSteppers(sim.Config{
						Graph: b.Graph, StartA: b.StartA, StartB: b.StartB,
						NeighborIDs: spec.Caps.NeighborIDs, Whiteboards: spec.Caps.Whiteboards,
						Seed: TrialSeed(b.Seed, i), MaxRounds: b.MaxRounds,
					}, a, bb))
					if got != want {
						t.Errorf("%s/%s/seed%d trial %d: batch %+v vs solo run %+v", name, inst.name, seed, i, got, want)
					}
				}
			}
		}
	}
}

// The tightened gate for the paper's two algorithms: per-trial
// outcomes and aggregate JSON must be byte-identical across worker
// counts 1/4/16 — every combination against one reference. CI runs
// this under -race, which exercises the steppers and the worker-owned
// lane reuse against the race detector.
func TestPaperSteppersIdenticalAcrossWorkersAndPaths(t *testing.T) {
	g, sa, sb := testGraph(t)
	for _, name := range []string{"whiteboard", "noboard"} {
		base := Batch{
			Graph: g, StartA: sa, StartB: sb,
			Algorithm: name, Delta: g.MinDegree(),
			Trials: 24, Seed: 424, MaxRounds: 1 << 22,
		}
		var refOut []Outcome
		var refAgg []byte
		for _, workers := range []int{1, 4, 16} {
			b := base
			b.Workers = workers
			out, err := RunOutcomes(t.Context(), b)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			agg, err := json.Marshal(aggregateOf(b, out))
			if err != nil {
				t.Fatal(err)
			}
			if refOut == nil {
				refOut, refAgg = out, agg
				continue
			}
			for i := range out {
				if out[i] != refOut[i] {
					t.Errorf("%s workers=%d trial %d: %+v vs reference %+v",
						name, workers, i, out[i], refOut[i])
				}
			}
			if string(agg) != string(refAgg) {
				t.Errorf("%s workers=%d: aggregate JSON differs:\n%s\nreference: %s",
					name, workers, agg, refAgg)
			}
		}
	}
}

// Batches of paper and baseline steppers alike must be deterministic
// across worker counts.
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

// walkerProgram is an endless uniform random walk by local ports,
// written as a direct-style Program.
func walkerProgram(e *sim.Env) {
	for {
		d := e.Degree()
		if d == 0 {
			e.Stay()
			continue
		}
		if err := e.MoveToPort(e.Rand().IntN(d)); err != nil {
			panic(err)
		}
	}
}

// programOnly names a strategy registered with a Program builder
// alone: two walkerPrograms. It is registered at package
// initialization, so the solo-run suite covers it too.
var programOnly = func() string {
	algo.Register(algo.Spec{
		Name: "programs-only", Order: 900,
		Build: func(algo.BuildOpts) (sim.Program, sim.Program, error) {
			return walkerProgram, walkerProgram, nil
		},
	})
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
