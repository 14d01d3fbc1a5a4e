package engine

import (
	"context"
	"math/rand/v2"
	"testing"
	"time"

	"fnr/internal/graph"
)

// BenchmarkPaperBatch4096x128 times the served paper-batch shape: on
// a planted(4096, 128) graph — Theorem 1's regime, δ > √n — a
// 128-trial whiteboard batch then a 128-trial noboard batch from one
// start pair, on one worker. Each op builds
// its lanes afresh, as every served batch does. It reports each
// algorithm's batch time per simulated round (ns/round-whiteboard,
// ns/round-noboard): the round-tick cost fnrbench traces as
// sim.ns_per_round.*.
func BenchmarkPaperBatch4096x128(b *testing.B) {
	const n, d, trials = 4096, 128, 128
	rng := rand.New(rand.NewPCG(2, 0xbe7c4))
	g, err := graph.PlantedMinDegree(n, d, rng)
	if err != nil {
		b.Fatal(err)
	}
	sa := graph.Vertex(rng.IntN(n))
	sb := g.Adj(sa)[rng.IntN(g.Degree(sa))]
	algos := []string{"whiteboard", "noboard"}
	var elapsed [2]time.Duration
	var rounds [2]float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, name := range algos {
			start := time.Now()
			agg, err := Run(context.Background(), Batch{Graph: g, StartA: sa, StartB: sb,
				Algorithm: name, Delta: g.MinDegree(), Trials: trials, Seed: 7, Workers: 1})
			elapsed[j] += time.Since(start)
			if err != nil {
				b.Fatal(err)
			}
			if agg.Errors > 0 || agg.Met != trials {
				b.Fatalf("%s: %d errors, %d of %d met", name, agg.Errors, agg.Met, trials)
			}
			// Every trial met, so met trials × mean meeting round is
			// every simulated round of the batch.
			rounds[j] += float64(agg.Met) * agg.Rounds.Mean
		}
	}
	for j, name := range algos {
		b.ReportMetric(float64(elapsed[j].Nanoseconds())/rounds[j], "ns/round-"+name)
	}
}
