package harness

import (
	"math"

	"fnr/internal/core"
	"fnr/internal/graph"
	"fnr/internal/sim"
	"fnr/internal/stats"
)

// classifierWorkload builds the planted heavy/light separation graph
// for E4: a center with 2k leaves, the first k of which form a clique
// (heaviness k+1 for Γ = N+(center)) while the rest touch only the
// center (heaviness 2). With α = ⌊(k+1)/4⌋ the clique leaves are
// ≥ 4α-heavy and the rest < α-light, so Lemma 2 predicts exact
// separation.
func classifierWorkload(k int) (*graph.Graph, int, error) {
	b := graph.NewBuilder(2*k + 1)
	for v := 1; v <= 2*k; v++ {
		b.MustAddEdge(0, graph.Vertex(v))
	}
	for u := 1; u <= k; u++ {
		for v := u + 1; v <= k; v++ {
			b.MustAddEdge(graph.Vertex(u), graph.Vertex(v))
		}
	}
	g, err := b.Build()
	alpha := (k + 1) / 4
	return g, alpha, err
}

// runE4 measures Sample's false-heavy / false-light rates on planted
// separations of growing size.
func runE4(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	ks := []int{16, 32, 64}
	if cfg.Quick {
		ks = []int{16}
	}
	tb := &Table{
		ID: "E4", Title: "Sample(Γ,α) classification on planted heavy/light neighborhoods",
		Claim:   "Lemma 2: reported-heavy ⇒ α-heavy; unreported ⇒ 4α-light (w.h.p.)",
		Columns: []string{"k", "n", "α", "trials", "false-heavy", "false-light", "err rate", "visits/trial"},
	}
	for _, k := range ks {
		g, alpha, err := classifierWorkload(k)
		if err != nil {
			return nil, err
		}
		type oc struct {
			falseHeavy, falseLight int
			visits                 int64
		}
		outcomes := runTrials(cfg, 1, func(_ int, seed uint64) oc {
			rep := &core.SampleReport{}
			_, err := sim.RunSteppers(sim.Config{
				Graph: g, StartA: 0, StartB: 1,
				NeighborIDs: true, Seed: seed,
				MaxRounds: 1 << 40, DisableMeeting: true,
			}, core.SampleClassifierStepper(cfg.Params, 8*alpha, rep), ghost{})
			if err != nil {
				return oc{}
			}
			heavy := make(map[int64]bool, len(rep.Heavy))
			for _, id := range rep.Heavy {
				heavy[id] = true
			}
			var o oc
			o.visits = rep.Visits
			// Ground truth: clique leaves 1..k and the center are
			// ≥ 4α-heavy; leaves k+1..2k are < α-light.
			if !heavy[0] {
				o.falseLight++
			}
			for v := int64(1); v <= int64(k); v++ {
				if !heavy[v] {
					o.falseLight++
				}
			}
			for v := int64(k + 1); v <= int64(2*k); v++ {
				if heavy[v] {
					o.falseHeavy++
				}
			}
			return o
		})
		fh, fl := 0, 0
		var visits int64
		for _, o := range outcomes {
			fh += o.falseHeavy
			fl += o.falseLight
			visits += o.visits
		}
		decisions := cfg.Seeds * (2*k + 1)
		tb.AddRow(k, g.N(), alpha, cfg.Seeds, fh, fl,
			stats.Rate(fh+fl, decisions), float64(visits)/float64(cfg.Seeds))
	}
	tb.AddNote("err rate is per classification decision; the paper's constants drive it below 1/n⁷, the scaled constants keep it near zero at these sizes")
	return tb, nil
}

// runE5 checks Construct's budgets: O(n/δ) iterations, O(log n) strict
// runs, dense output, and O(n·log²n/δ) rounds.
func runE5(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	sizes := []int{256, 512, 1024, 2048}
	if cfg.Quick {
		sizes = []int{256, 512}
	}
	tb := &Table{
		ID: "E5", Title: "Construct budgets (δ = n^0.75)",
		Claim:   "Lemmas 6–8: ≤ O(n/δ) iterations, O(log n) strict runs, (a,δ/8,2)-dense output, O(n·log²n/δ) rounds",
		Columns: []string{"n", "δ", "iters", "2n/δ", "strict", "ln n", "rounds", "n·ln²n/δ", "ratio", "dense ok"},
	}
	for _, n := range sizes {
		d := int(math.Round(math.Pow(float64(n), 0.75)))
		g, sa, _, err := plantedWorkload(n, d, uint64(n)*13)
		if err != nil {
			return nil, err
		}
		delta := g.MinDegree()
		type oc struct {
			iters, strict int
			rounds        float64
			dense         bool
		}
		outcomes := runTrials(cfg, 1, func(_ int, seed uint64) oc {
			st, err := constructOnly(g, sa, 0, seed, cfg.Params, core.Knowledge{Delta: delta})
			if err != nil {
				return oc{}
			}
			dense := core.VerifyDense(g, sa, st.T, float64(delta)/cfg.Params.AlphaDen, 2) == nil
			return oc{st.Iterations, st.StrictRuns, float64(st.ConstructRounds), dense}
		})
		var iters, strict stats.Summary
		var rounds []float64
		denseOK := 0
		for _, o := range outcomes {
			iters.Add(float64(o.iters))
			strict.Add(float64(o.strict))
			rounds = append(rounds, o.rounds)
			if o.dense {
				denseOK++
			}
		}
		ln := math.Log(float64(n))
		pred := float64(n) * ln * ln / float64(delta)
		med := stats.Median(rounds)
		tb.AddRow(n, delta, iters.Mean(), 2*float64(n)/float64(delta), strict.Mean(), ln,
			med, pred, med/pred,
			stats.Rate(denseOK, cfg.Seeds))
	}
	tb.AddNote("ratio (rounds vs n·ln²n/δ) staying flat across n confirms Lemma 7's total-time bound")
	return tb, nil
}

// runE10 estimates the success probability of both algorithms across
// many seeds at a fixed mid-size instance.
func runE10(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	seeds := 100
	if cfg.Quick {
		seeds = 16
	}
	n := 512
	tb := &Table{
		ID: "E10", Title: "Success probability across seeds (n=512)",
		Claim:   "both algorithms meet w.h.p.; measured under scaled constants",
		Columns: []string{"algorithm", "δ", "trials", "met", "rate", "median", "p99", "bound", "p99/bound"},
	}
	// Whiteboard algorithm at δ = n^0.75.
	{
		d := int(math.Round(math.Pow(float64(n), 0.75)))
		g, sa, sb, err := plantedWorkload(n, d, uint64(n)*17)
		if err != nil {
			return nil, err
		}
		delta := g.MinDegree()
		bound := theorem1Bound(n, delta, g.MaxDegree())
		maxRounds := int64(400*bound) + 400_000
		outcomes, err := runAlgo(cfg, seeds, 1, g, sa, sb, "whiteboard", delta, maxRounds)
		if err != nil {
			return nil, err
		}
		rounds := metRounds(outcomes)
		tb.AddRow("whiteboard (Thm 1)", delta, seeds, len(rounds), stats.Rate(len(rounds), seeds),
			stats.Median(rounds), stats.Quantile(rounds, 0.99), bound, stats.Quantile(rounds, 0.99)/bound)
	}
	// No-whiteboard algorithm at δ = n^0.8.
	{
		d := int(math.Round(math.Pow(float64(n), 0.8)))
		g, sa, sb, err := plantedWorkload(n, d, uint64(n)*19)
		if err != nil {
			return nil, err
		}
		delta := g.MinDegree()
		bound := theorem2Bound(cfg.Params, n, delta)
		outcomes, err := runAlgo(cfg, seeds, 1, g, sa, sb, "noboard", delta, int64(40*bound))
		if err != nil {
			return nil, err
		}
		rounds := metRounds(outcomes)
		tb.AddRow("no-whiteboard (Thm 2)", delta, seeds, len(rounds), stats.Rate(len(rounds), seeds),
			stats.Median(rounds), stats.Quantile(rounds, 0.99), bound, stats.Quantile(rounds, 0.99)/bound)
	}
	tb.AddNote("the paper's constants push failure below n^{-c}; the scaled constants trade that exponent for simulability — rates here are the measured analogue")
	return tb, nil
}

// runA1 races the paper's two-step Construct against the strict-only
// strawman of §3.3. The separation is governed by the iteration count
// Θ(n/δ) (the strawman re-samples all of NS every iteration), so the
// workload pins δ = 2√n to make n/δ = √n/2 grow with n.
func runA1(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	if cfg.Seeds > 5 {
		cfg.Seeds = 5 // strict-only runs are long; cap the trials
	}
	sizes := []int{1024, 2048, 4096}
	if cfg.Quick {
		sizes = []int{256}
	}
	tb := &Table{
		ID: "A1", Title: "Ablation: two-step vs strict-only Construct (δ = 2√n, so n/δ grows)",
		Claim:   "§3.3: strict-only pays Θ(n/δ) strict Samples (Θ((n/δ)²·δ·polylog) visits); the optimistic pass removes the per-iteration factor",
		Columns: []string{"n", "δ", "n/δ", "two-step rounds", "strict-only rounds", "slowdown", "strict runs (2-step)", "strict runs (ablated)"},
	}
	strictParams := cfg.Params
	strictParams.StrictOnly = true
	for _, n := range sizes {
		d := 2 * int(math.Round(math.Sqrt(float64(n))))
		g, sa, _, err := plantedWorkload(n, d, uint64(n)*23)
		if err != nil {
			return nil, err
		}
		delta := g.MinDegree()
		run := func(p core.Params) (float64, float64) {
			type oc struct {
				rounds float64
				strict int
			}
			outcomes := runTrials(cfg, 1, func(_ int, seed uint64) oc {
				st, err := constructOnly(g, sa, 0, seed, p, core.Knowledge{Delta: delta})
				if err != nil {
					return oc{}
				}
				return oc{float64(st.ConstructRounds), st.StrictRuns}
			})
			var rounds []float64
			var strict stats.Summary
			for _, o := range outcomes {
				rounds = append(rounds, o.rounds)
				strict.Add(float64(o.strict))
			}
			return stats.Median(rounds), strict.Mean()
		}
		twoStep, strict2 := run(cfg.Params)
		strictOnly, strictAbl := run(strictParams)
		tb.AddRow(n, delta, float64(n)/float64(delta), twoStep, strictOnly, strictOnly/twoStep, strict2, strictAbl)
	}
	tb.AddNote("the slowdown grows with n/δ, matching the extra per-iteration strict Sample the strawman pays; at n/δ ≲ ln n the strawman is actually cheaper (whole-NS samples classify faster than difference-set ones), which is why the paper still needs its strict fallback")
	return tb, nil
}

// runA2 measures the overhead of the §4.1 doubling δ-estimation
// against exact knowledge, on two workloads: the quasi-regular family
// (no restarts ever trigger — the halved initial estimate is already a
// lower bound) and a heterogeneous variant with a planted low-degree
// vertex inside the start's 2-neighborhood, which forces genuine
// restarts and exercises Corollary 2's geometric series.
func runA2(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	sizes := []int{256, 512, 1024}
	if cfg.Quick {
		sizes = []int{256}
	}
	tb := &Table{
		ID: "A2", Title: "Ablation: doubling δ-estimation vs known δ (δ = n^0.75)",
		Claim:   "Cor. 2: the doubling updates form a geometric series — constant-factor overhead",
		Columns: []string{"n", "workload", "δ", "known-δ rounds", "doubling rounds", "overhead", "restarts (mean)"},
	}
	for _, n := range sizes {
		d := int(math.Round(math.Pow(float64(n), 0.75)))
		base, sa, _, err := plantedWorkload(n, d, uint64(n)*29)
		if err != nil {
			return nil, err
		}
		hetero, err := plantLowDegreeNeighbor(base, sa, d/4)
		if err != nil {
			return nil, err
		}
		workloads := []struct {
			name string
			g    *graph.Graph
		}{
			{"quasi-regular", base},
			{"planted low-δ", hetero},
		}
		for _, wl := range workloads {
			g := wl.g
			delta := g.MinDegree()
			run := func(know core.Knowledge) (float64, float64) {
				type oc struct {
					rounds   float64
					restarts int
				}
				outcomes := runTrials(cfg, 1, func(_ int, seed uint64) oc {
					st, err := constructOnly(g, sa, 0, seed, cfg.Params, know)
					if err != nil {
						return oc{}
					}
					return oc{float64(st.ConstructRounds), st.Restarts}
				})
				var rounds []float64
				var restarts stats.Summary
				for _, o := range outcomes {
					rounds = append(rounds, o.rounds)
					restarts.Add(float64(o.restarts))
				}
				return stats.Median(rounds), restarts.Mean()
			}
			known, _ := run(core.Knowledge{Delta: delta})
			doubling, restarts := run(core.Knowledge{Doubling: true})
			tb.AddRow(n, wl.name, delta, known, doubling, doubling/known, restarts)
		}
	}
	tb.AddNote("quasi-regular never restarts (the halved initial estimate already lower-bounds δ) and the weaker α target even ends Construct earlier; the planted low-δ workload forces real restarts and still keeps the overhead O(1) — Corollary 2's geometric series")
	return tb, nil
}

// plantLowDegreeNeighbor adds one vertex of degree `deg` adjacent to
// start itself (plus deg-1 of start's neighbors). Being in N+(start),
// the new vertex is probed and sampled by Construct, so the doubling
// estimation is guaranteed to observe its low degree and restart.
func plantLowDegreeNeighbor(g *graph.Graph, start graph.Vertex, deg int) (*graph.Graph, error) {
	if deg < 1 {
		deg = 1
	}
	if deg > g.Degree(start) {
		deg = g.Degree(start)
	}
	b := graph.NewBuilder(g.N() + 1)
	for v := graph.Vertex(0); int(v) < g.N(); v++ {
		for _, w := range g.Adj(v) {
			if v < w {
				b.MustAddEdge(v, w)
			}
		}
	}
	x := graph.Vertex(g.N())
	b.MustAddEdge(x, start)
	for _, w := range g.Adj(start)[:deg-1] {
		b.MustAddEdge(x, w)
	}
	return b.Build()
}
