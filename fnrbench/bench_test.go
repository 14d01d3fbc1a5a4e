package main

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestAPISurface keeps the benchmark off the entry points ROADMAP
// plans to delete — the RunBatch* facade variants, Batch.LaneWidth
// and Batch.ForceProgramPath, and the v2 graph writer WriteBinary — so
// that those deletions never need to edit the benchmark.
func TestAPISurface(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "fnr" {
				t.Errorf("%s imports the fnr facade; drive job, graph, engine and fnrd directly", fset.Position(imp.Pos()))
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			switch {
			case strings.HasPrefix(id.Name, "RunBatch"),
				id.Name == "LaneWidth",
				id.Name == "ForceProgramPath",
				id.Name == "WriteBinary":
				t.Errorf("%s uses %s, which ROADMAP plans to remove", fset.Position(id.Pos()), id.Name)
			}
			return true
		})
	}
}

type namedMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestMetricLists requires BENCHMARK.json and design.json to list
// exactly the workloads and metrics the command reports.
func TestMetricLists(t *testing.T) {
	var bench struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []namedMetric `json:"end_to_end"`
		PerLayer []namedMetric `json:"per_layer"`
	}
	readJSON(t, "../BENCHMARK.json", &bench)
	var design struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []namedMetric `json:"end_to_end"`
		PerLayer []namedMetric `json:"per_layer"`
	}
	readJSON(t, "design.json", &design)

	var e2e, layers []namedMetric
	for _, m := range endToEnd {
		e2e = append(e2e, namedMetric{m.name, m.unit})
	}
	for _, l := range perLayer {
		layers = append(layers, namedMetric{l.name, l.unit})
	}
	for _, m := range traceMetrics {
		layers = append(layers, namedMetric{m.name, m.unit})
	}
	for _, src := range []struct {
		file      string
		workloads []string
		e2e, pl   []namedMetric
	}{
		{"BENCHMARK.json", names(bench.Workloads), bench.EndToEnd, bench.PerLayer},
		{"design.json", names(design.Workloads), design.EndToEnd, design.PerLayer},
	} {
		if !slices.Equal(src.workloads, workloadNames) {
			t.Errorf("%s workloads %v, command runs %v", src.file, src.workloads, workloadNames)
		}
		if !slices.Equal(src.e2e, e2e) {
			t.Errorf("%s end_to_end %v, command reports %v", src.file, src.e2e, e2e)
		}
		if !slices.Equal(src.pl, layers) {
			t.Errorf("%s per_layer %v, command reports %v", src.file, src.pl, layers)
		}
	}
	for _, l := range perLayer {
		if !slices.Contains(workloadNames, l.from) {
			t.Errorf("per-layer metric %s comes from unknown workload %q", l.name, l.from)
		}
	}
}

// TestEndToEndMetrics checks that an untraced window reports every
// listed end-to-end metric, and the median of per-slice values: a
// slow slice does not move it.
func TestEndToEndMetrics(t *testing.T) {
	start := time.Unix(0, 0)
	win := &window{start: start, elapsed: 5 * time.Second}
	for i := range 600 {
		lat := time.Duration(10+i%10) * time.Millisecond // p50 14.5, p90 18.1 ms
		if i < 120 {
			lat *= 3 // a stalled first slice
		}
		win.ops = append(win.ops, opResult{lat: lat, at: start.Add(time.Duration(i) * 5 * time.Second / 600)})
	}
	got := endToEndMetrics([]float64{3, 1, 2}, 7, win)
	want := map[string]metric{
		"setup_s":     {2, "s"},
		"peak_rss_mb": {7, "MB"},
		"ops_per_s":   {120, "1/s"},
		"op_p50_ms":   {14.5, "ms"},
		"op_p90_ms":   {18.1, "ms"},
	}
	if len(got) != len(endToEnd) {
		t.Errorf("reported %d metrics, listed %d", len(got), len(endToEnd))
	}
	for name, w := range want {
		if g := got[name]; math.Abs(g.Value-w.Value) > 1e-9 || g.Unit != w.Unit {
			t.Errorf("%s = %v, want %v", name, g, w)
		}
	}
}

func names(ws []struct {
	Name string `json:"name"`
}) []string {
	var out []string
	for _, w := range ws {
		out = append(out, w.Name)
	}
	return out
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestRecordedDigests requires the embedded digest table to parse and
// to name only known workloads.
func TestRecordedDigests(t *testing.T) {
	var table map[string]map[string]string
	if err := json.Unmarshal(recordedDigests, &table); err != nil {
		t.Fatal(err)
	}
	for wl, seeds := range table {
		if !slices.Contains(workloadNames, wl) {
			t.Errorf("digests.json names unknown workload %q", wl)
		}
		if len(seeds) == 0 {
			t.Errorf("digests.json records no seed for %s", wl)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// TestSelfTime checks that a span's self time excludes its children.
func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 50, End: 60, Parent: 0},
	}}
	if got, want := tr.selfNs(), []int64{60, 30, 10}; !slices.Equal(got, want) {
		t.Errorf("selfNs = %v, want %v", got, want)
	}
}

// TestDeriveSpreads checks that derived input seeds differ by stream,
// index and workload seed.
func TestDeriveSpreads(t *testing.T) {
	seen := make(map[uint64]bool)
	for seed := range uint64(4) {
		for _, stream := range []string{"paper-graph", "paper-spec"} {
			for i := range 4 {
				v := derive(seed, stream, i)
				if seen[v] {
					t.Fatalf("derive(%d, %q, %d) repeats %#x", seed, stream, i, v)
				}
				seen[v] = true
			}
		}
	}
}
