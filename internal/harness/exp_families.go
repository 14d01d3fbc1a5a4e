package harness

import (
	"math"
	"math/rand/v2"

	"fnr/internal/core"
	"fnr/internal/graph"
	"fnr/internal/stats"
)

// e12Family is one graph family of the E12 sweep. The generator takes
// the family's private RNG so that families are independent streams.
type e12Family struct {
	name string
	gen  func(rng *rand.Rand) (*graph.Graph, error)
}

// e12Families returns the family list for size n: structurally
// different graphs, all satisfying δ ≥ √n.
func e12Families(n int) []e12Family {
	d := int(math.Round(math.Pow(float64(n), 0.75)))
	return []e12Family{
		{"complete", func(*rand.Rand) (*graph.Graph, error) { return graph.Complete(n) }},
		{"planted n^0.75", func(rng *rand.Rand) (*graph.Graph, error) { return graph.PlantedMinDegree(n, d, rng) }},
		{"random regular", func(rng *rand.Rand) (*graph.Graph, error) { return graph.RandomRegular(n, d+d%2, rng) }},
		{"dense gnp", func(rng *rand.Rand) (*graph.Graph, error) { return graph.GNP(n, 0.5, rng) }},
		{"planted √n·2logn", func(rng *rand.Rand) (*graph.Graph, error) {
			dd := int(2 * math.Sqrt(float64(n)) * math.Log2(float64(n)) / 2)
			if dd >= n {
				dd = n - 1
			}
			return graph.PlantedMinDegree(n, dd, rng)
		}},
	}
}

// e12Rand derives family famIdx's private PCG stream from (n, famIdx),
// so every family's draws are independent of list order and of the
// other families — the workloads can generate in parallel. The
// resulting draw streams are pinned by hash tests; changing this
// derivation invalidates them.
func e12Rand(n, famIdx int) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(n), 0xfa111e5+uint64(famIdx)))
}

// e12Workload generates family famIdx's instance and start pair from
// its private stream.
func e12Workload(n, famIdx int, fam e12Family) (workload, error) {
	rng := e12Rand(n, famIdx)
	g, err := fam.gen(rng)
	if err != nil {
		return workload{}, err
	}
	sa := graph.Vertex(rng.IntN(g.N()))
	for g.Degree(sa) == 0 {
		sa = graph.Vertex(rng.IntN(g.N()))
	}
	sb := g.Adj(sa)[rng.IntN(g.Degree(sa))]
	return workload{g: g, sa: sa, sb: sb}, nil
}

// e12Workloads generates every family's workload in parallel across
// the engine worker pool, like E1–E3's planted workloads. Each
// instance depends only on (n, famIdx), so parallelism changes
// wall-clock time only.
func e12Workloads(cfg Config, n int, families []e12Family) ([]workload, error) {
	return genWorkloads(cfg, len(families), func(i int) (workload, error) {
		return e12Workload(n, i, families[i])
	})
}

// runE12 stresses the Theorem-1 guarantee across structurally different
// graph families, all satisfying δ ≥ √n: the w.h.p. statement is
// universal over the class G(∆̂, δ̂), not a property of one workload.
// For each family the experiment reports the end-to-end success rate,
// the median against the evaluated bound, and whether Construct's
// output verified dense.
func runE12(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	n := 512
	if cfg.Quick {
		n = 128
	}
	families := e12Families(n)
	workloads, err := e12Workloads(cfg, n, families)
	if err != nil {
		return nil, err
	}
	tb := &Table{
		ID: "E12", Title: "Theorem 1 across graph families (δ ≥ √n everywhere)",
		Claim:   "the w.h.p. guarantee is universal over the instance class, not an artifact of one workload",
		Columns: []string{"family", "n", "δ", "∆", "met", "median", "bound", "median/bound", "dense ok"},
	}
	for i, f := range families {
		g, sa, sb := workloads[i].g, workloads[i].sa, workloads[i].sb
		delta := g.MinDegree()
		bound := theorem1Bound(g.N(), delta, g.MaxDegree())
		maxRounds := int64(400*bound) + 400_000
		outcomes, err := runAlgo(cfg, cfg.Seeds, 1, g, sa, sb, "whiteboard", delta, maxRounds)
		if err != nil {
			return nil, err
		}
		// Dense verification on one construct-only run per family.
		st, err := constructOnly(g, sa, sb, 99, cfg.Params, core.Knowledge{Delta: delta})
		if err != nil {
			return nil, err
		}
		denseOK := core.VerifyDense(g, sa, st.T, float64(delta)/cfg.Params.AlphaDen, 2) == nil
		rounds := metRounds(outcomes)
		med := stats.Median(rounds)
		tb.AddRow(f.name, g.N(), delta, g.MaxDegree(), len(rounds), med, bound, med/bound, denseOK)
	}
	tb.AddNote("every family satisfies δ ≥ √n = %.0f; medians stay within a small constant of the evaluated bound on all of them", math.Sqrt(float64(n)))
	return tb, nil
}
