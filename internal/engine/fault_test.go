package engine

import (
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	_ "fnr/internal/algo/paper"
	_ "fnr/internal/baseline"
)

func TestParseFaultPlan(t *testing.T) {
	plan, err := ParseFaultPlan("panic:p=1e-4,stall:p=1e-4,builderr:p=1e-5", 7)
	if err != nil {
		t.Fatal(err)
	}
	want := FaultPlan{Seed: 7, PPanic: 1e-4, PStall: 1e-4, PBuildErr: 1e-5}
	if *plan != want {
		t.Errorf("parsed %+v, want %+v", *plan, want)
	}
	if plan, err := ParseFaultPlan(" stall:p=0.5 ", 0); err != nil || plan.PStall != 0.5 {
		t.Errorf("single padded clause: %+v, %v", plan, err)
	}

	bad := []string{
		"panic",                     // no colon
		"panic:1e-4",                // no p= prefix
		"panic:p=zap",               // not a float
		"flood:p=0.1",               // unknown kind
		"panic:p=1e-4,panic:p=1e-5", // repeated kind
		"panic:p=-0.1",              // below range
		"panic:p=1.5",               // above range
		"panic:p=NaN",               // NaN
		"panic:p=0.6,stall:p=0.6",   // sum > 1
	}
	for _, spec := range bad {
		if _, err := ParseFaultPlan(spec, 0); err == nil {
			t.Errorf("spec %q: want parse error, got nil", spec)
		}
	}
}

// KindFor is a pure function of (plan seed, trial): placement must
// not drift between calls, must change with the seed, and must hit
// roughly the configured fraction of trials.
func TestFaultPlanKindFor(t *testing.T) {
	plan := &FaultPlan{Seed: 3, PPanic: 0.05, PStall: 0.05, PBuildErr: 0.05}
	counts := map[FaultKind]int{}
	const n = 20000
	for i := range n {
		k := plan.KindFor(i)
		if k != plan.KindFor(i) {
			t.Fatalf("trial %d: KindFor is not stable", i)
		}
		counts[k]++
	}
	for _, k := range []FaultKind{FaultPanic, FaultStall, FaultBuildErr} {
		// 5% of 20000 = 1000 expected; a 3-sigma band is ±~92.
		if c := counts[k]; c < 800 || c > 1200 {
			t.Errorf("kind %d hit %d/%d trials, want ≈1000", k, c, n)
		}
	}
	other := &FaultPlan{Seed: 4, PPanic: 0.05, PStall: 0.05, PBuildErr: 0.05}
	same := 0
	for i := range n {
		if plan.KindFor(i) != FaultNone && plan.KindFor(i) == other.KindFor(i) {
			same++
		}
	}
	if same > n/100 {
		t.Errorf("plans with different seeds agree on %d faulted trials — placement ignores the seed?", same)
	}
	if (&FaultPlan{Seed: 1}).KindFor(5) != FaultNone {
		t.Error("zero-probability plan injected a fault")
	}
}

// The tentpole differential: the same fault plan produces the same
// aggregate JSON — injected panics, stalls, builder errors, messages
// and all — at every worker count and across a sharded merge.
func TestFaultDifferentialAcrossPathsAndShards(t *testing.T) {
	g, sa, sb := testGraph(t)
	for _, name := range []string{"whiteboard", "sweep"} {
		base := Batch{
			Graph: g, StartA: sa, StartB: sb,
			Algorithm: name, Delta: g.MinDegree(),
			Trials: 300, Seed: 11, MaxRounds: 1 << 22,
			Faults: &FaultPlan{Seed: 5, PPanic: 0.02, PStall: 0.02, PBuildErr: 0.02},
		}
		var ref []byte
		for _, workers := range []int{1, 4, 16} {
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
			if ref == nil {
				ref = blob
				if agg.Errors == 0 {
					t.Fatalf("%s: fault plan injected nothing at these probabilities", name)
				}
				if len(agg.FirstErrors) == 0 {
					t.Fatalf("%s: errors occurred but FirstErrors is empty", name)
				}
				continue
			}
			if string(blob) != string(ref) {
				t.Errorf("%s workers=%d: faulted aggregate differs:\n%s\nreference: %s",
					name, workers, blob, ref)
			}
		}
		// Sharded: run each shard separately, merge, aggregate.
		var parts []*Reducer
		const shards = 3
		for i := range shards {
			b := base
			b.ShardIndex, b.ShardCount = i, shards
			r, err := RunReduced(t.Context(), b, Checkpoint{}, nil)
			if err != nil {
				t.Fatalf("%s shard %d: %v", name, i, err)
			}
			parts = append(parts, r)
		}
		blob, err := json.Marshal(Merge(parts...).Aggregate(base))
		if err != nil {
			t.Fatal(err)
		}
		if string(blob) != string(ref) {
			t.Errorf("%s: sharded merge of faulted batch differs:\n%s\nreference: %s", name, blob, ref)
		}
	}
}

// Injected fault messages surface in FirstErrors with their global
// trial indices, keyed by the lowest-index occurrences.
func TestFaultFirstErrorsNameTheirTrials(t *testing.T) {
	g, sa, sb := testGraph(t)
	b := Batch{
		Graph: g, StartA: sa, StartB: sb,
		Algorithm: "sweep", Delta: g.MinDegree(),
		Trials: 400, Seed: 11, MaxRounds: 1 << 22,
		Faults: &FaultPlan{Seed: 5, PPanic: 0.03, PBuildErr: 0.03},
	}
	agg, err := Run(t.Context(), b)
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.FirstErrors) == 0 {
		t.Fatal("no FirstErrors despite injected faults")
	}
	if len(agg.FirstErrors) > maxFirstErrors {
		t.Fatalf("FirstErrors carries %d entries, cap is %d", len(agg.FirstErrors), maxFirstErrors)
	}
	// Reconstruct the expected lowest faulted trials from the plan.
	var want []string
	for trial := 0; trial < b.Trials && len(want) < maxFirstErrors; trial++ {
		switch b.Faults.KindFor(trial) {
		case FaultPanic:
			want = append(want, sprintfTrialErr(trial, "sim: trial panicked: fault injection: panic at trial", trial))
		case FaultBuildErr:
			want = append(want, sprintfTrialErr(trial, "fault injection: builder error at trial", trial))
		}
	}
	if len(agg.FirstErrors) != len(want) {
		t.Fatalf("FirstErrors = %q, want %d entries %q", agg.FirstErrors, len(want), want)
	}
	for i, got := range agg.FirstErrors {
		if got != want[i] {
			t.Errorf("FirstErrors[%d] = %q, want %q", i, got, want[i])
		}
	}
}

func sprintfTrialErr(trial int, prefix string, faultTrial int) string {
	return "trial " + strconv.Itoa(trial) + ": " + prefix + " " + strconv.Itoa(faultTrial)
}

// Fault injection interposes on steppers, and every strategy reaches
// them: a faulted batch of a strategy registered with Programs alone
// must inject its faults rather than run clean, and an invalid plan
// must fail batch validation.
func TestFaultPlanRequiresStepperPath(t *testing.T) {
	g, sa, sb := testGraph(t)
	b := Batch{
		Graph: g, StartA: sa, StartB: sb,
		Algorithm: programOnly, Delta: g.MinDegree(),
		Trials: 4, Seed: 1, MaxRounds: 1 << 22,
		Faults: &FaultPlan{Seed: 1, PPanic: 1},
	}
	agg, err := Run(t.Context(), b)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Errors != b.Trials || len(agg.FirstErrors) == 0 || !strings.Contains(agg.FirstErrors[0], "fault injection: panic") {
		t.Errorf("program-only strategy with every trial faulted: %+v, want every trial an injected panic", agg)
	}
	b.Faults = &FaultPlan{Seed: 1, PPanic: 2}
	if _, err := Run(t.Context(), b); err == nil {
		t.Error("invalid fault probability passed batch validation")
	}
}
