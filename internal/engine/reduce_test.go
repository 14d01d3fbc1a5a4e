package engine

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"fnr/internal/stats"

	_ "fnr/internal/algo/paper"
	_ "fnr/internal/baseline"
)

// Run's aggregate must be byte-identical to reducing RunOutcomes'
// trial-ordered outcomes: the harness's per-trial entry point and the
// aggregate entry point run the same trials.
func TestRunMatchesReducedOutcomes(t *testing.T) {
	g, sa, sb := testGraph(t)
	for _, name := range []string{"whiteboard", "noboard", "birthday", "walkpair"} {
		b := Batch{
			Graph: g, StartA: sa, StartB: sb,
			Algorithm: name, Delta: g.MinDegree(),
			Trials: 40, Seed: 99, MaxRounds: 1 << 22,
		}
		agg, err := Run(t.Context(), b)
		if err != nil {
			t.Fatalf("%s Run: %v", name, err)
		}
		out, err := RunOutcomes(t.Context(), b)
		if err != nil {
			t.Fatalf("%s RunOutcomes: %v", name, err)
		}
		got, _ := json.Marshal(agg)
		want, _ := json.Marshal(aggregateOf(b, out))
		if string(got) != string(want) {
			t.Errorf("%s: Run aggregate differs from its reduced outcomes:\n%s\n%s", name, got, want)
		}
	}
}

// Merge must be invariant under how the outcome stream is split into
// parts and in what order the parts are merged.
func TestMergePartitionInvariance(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	outcomes := make([]Outcome, 500)
	for i := range outcomes {
		o := Outcome{Rounds: int64(rng.IntN(50)), Moves: int64(rng.IntN(2000))}
		switch rng.IntN(10) {
		case 0:
			o.Err = true
		case 1, 2:
		default:
			o.Met = true
		}
		outcomes[i] = o
	}
	b := Batch{Algorithm: "x", Seed: 5}

	reduce := func(parts [][]Outcome) []byte {
		rs := make([]*Reducer, len(parts))
		for i, part := range parts {
			rs[i] = NewReducer()
			// Outcomes here carry no error messages, so the trial
			// index handed to Add is irrelevant to the merge.
			for j, o := range part {
				rs[i].Add(j, o)
			}
		}
		blob, err := json.Marshal(Merge(rs...).Aggregate(b))
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}

	ref := reduce([][]Outcome{outcomes})
	splits := [][]Outcome{outcomes[:17], outcomes[17:300], outcomes[300:]}
	if got := reduce(splits); string(got) != string(ref) {
		t.Errorf("3-way split differs:\n%s\nreference: %s", got, ref)
	}
	reversed := [][]Outcome{outcomes[300:], outcomes[17:300], outcomes[:17]}
	if got := reduce(reversed); string(got) != string(ref) {
		t.Errorf("reversed merge order differs:\n%s\nreference: %s", got, ref)
	}
	perTrial := make([][]Outcome, len(outcomes))
	for i := range outcomes {
		perTrial[i] = outcomes[i : i+1]
	}
	if got := reduce(perTrial); string(got) != string(ref) {
		t.Errorf("one-part-per-trial merge differs:\n%s\nreference: %s", got, ref)
	}
	// Nil parts are skipped (a worker that claimed no chunk).
	if got := reduce([][]Outcome{outcomes, nil, {}}); string(got) != string(ref) {
		t.Errorf("empty/nil parts change the merge:\n%s\nreference: %s", got, ref)
	}
}

// distCounter's rank-based quantiles must be bit-identical to
// stats.Quantile on the expanded sample, on both random multisets
// and the edge shapes (single value, heavy duplicates).
func TestDistCounterQuantilesMatchStats(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 41))
	cases := [][]int64{
		{7},
		{3, 3, 3, 3},
		{1, 2},
		{5, 1, 5, 1, 5},
	}
	for c := 0; c < 20; c++ {
		n := 1 + rng.IntN(400)
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = int64(rng.IntN(30)) // duplicate-heavy
		}
		cases = append(cases, xs)
	}
	for ci, xs := range cases {
		var d distCounter
		expanded := make([]float64, len(xs))
		for i, v := range xs {
			d.add(v, 1)
			expanded[i] = float64(v)
		}
		for _, q := range []float64{0, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99, 1} {
			want := stats.Quantile(expanded, q)
			got := d.quantile(q)
			if got != want {
				t.Errorf("case %d q=%v: distCounter %v != stats %v", ci, q, got, want)
			}
		}
		got := d.dist()
		if got.Median != stats.Median(expanded) || got.P95 != stats.Quantile(expanded, 0.95) ||
			got.Min != slices.Min(expanded) || got.Max != slices.Max(expanded) {
			t.Errorf("case %d: dist quantiles %+v differ from stats on %v", ci, got, expanded)
		}
	}
	if !math.IsNaN((&distCounter{}).quantile(0.5)) {
		t.Error("empty distCounter quantile should be NaN")
	}
	if d := (&distCounter{}).dist(); d != (Dist{}) {
		t.Errorf("empty distCounter dist = %+v, want zero", d)
	}
}
