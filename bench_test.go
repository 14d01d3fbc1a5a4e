package fnr

// One benchmark per reproduction experiment (README, "Reproduction
// suite"): each run regenerates the corresponding cmd/experiments
// table under a reduced (quick) configuration and reports table size
// and wall time. Full tables are produced by `go run ./cmd/experiments`.
//
// Micro-benchmarks at the bottom measure the substrate itself
// (simulator round throughput, generators, Construct, adversary).

import (
	"math/rand/v2"
	"testing"

	"fnr/internal/core"
	"fnr/internal/harness"
	"fnr/internal/lower"
	"fnr/internal/sim"
)

// benchExperiment runs one suite entry per iteration in quick mode.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := harness.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	cfg := harness.Config{Quick: true, Seeds: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb, err := e.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(tb.Rows)), "rows")
	}
}

func BenchmarkE1MainScalingN(b *testing.B)   { benchExperiment(b, "E1") }
func BenchmarkE2Crossover(b *testing.B)      { benchExperiment(b, "E2") }
func BenchmarkE3NoWhiteboard(b *testing.B)   { benchExperiment(b, "E3") }
func BenchmarkE4SampleAccuracy(b *testing.B) { benchExperiment(b, "E4") }
func BenchmarkE5Construct(b *testing.B)      { benchExperiment(b, "E5") }
func BenchmarkE6StarLowerBound(b *testing.B) { benchExperiment(b, "E6") }
func BenchmarkE7KT0LowerBound(b *testing.B)  { benchExperiment(b, "E7") }
func BenchmarkE8Distance2(b *testing.B)      { benchExperiment(b, "E8") }
func BenchmarkE9Adversary(b *testing.B)      { benchExperiment(b, "E9") }
func BenchmarkE10SuccessRate(b *testing.B)   { benchExperiment(b, "E10") }
func BenchmarkE11AndersonWeber(b *testing.B) { benchExperiment(b, "E11") }
func BenchmarkA1StrictOnly(b *testing.B)     { benchExperiment(b, "A1") }
func BenchmarkA2Doubling(b *testing.B)       { benchExperiment(b, "A2") }

// BenchmarkSimRoundThroughput measures the raw cost of one simulated
// round (two moving agents, KT1 views, no fast-forwarding possible).
func BenchmarkSimRoundThroughput(b *testing.B) {
	g, err := Ring(64)
	if err != nil {
		b.Fatal(err)
	}
	walker := func(e *Env) {
		n := e.NPrime()
		for {
			if err := e.MoveToID((e.HereID() + 1) % n); err != nil {
				return
			}
		}
	}
	b.ResetTimer()
	res, err := RunPrograms(SimConfig{
		Graph: g, StartA: 0, StartB: 32, NeighborIDs: true,
		MaxRounds: int64(b.N), DisableMeeting: true,
	}, walker, walker)
	if err != nil {
		b.Fatal(err)
	}
	if res.Rounds != int64(b.N) {
		b.Fatalf("executed %d rounds, want %d", res.Rounds, b.N)
	}
}

// BenchmarkPlantedMinDegree measures workload-graph generation.
func BenchmarkPlantedMinDegree(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := PlantedMinDegree(1024, 181, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// haltStepper is an idle partner that halts at round 0.
type haltStepper struct{}

func (haltStepper) Init(*sim.StepContext)     {}
func (haltStepper) Next(*sim.View) sim.Action { return sim.Halt() }

// BenchmarkConstruct measures one full Construct run (the dominant cost
// of the Theorem-1 algorithm) at n=256, δ=n^0.75.
func BenchmarkConstruct(b *testing.B) {
	rng := rand.New(rand.NewPCG(3, 4))
	g, err := PlantedMinDegree(256, 64, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := sim.RunSteppers(sim.Config{
			Graph: g, StartA: 0, StartB: 1, NeighborIDs: true,
			Seed: uint64(i), MaxRounds: 1 << 40, DisableMeeting: true,
		}, core.ConstructOnlyStepper(core.PracticalParams(), core.Knowledge{Delta: g.MinDegree()}, nil), haltStepper{})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWhiteboardRendezvous measures one end-to-end Theorem-1 run.
func BenchmarkWhiteboardRendezvous(b *testing.B) {
	rng := rand.New(rand.NewPCG(5, 6))
	g, err := PlantedMinDegree(512, 108, rng)
	if err != nil {
		b.Fatal(err)
	}
	sa := Vertex(0)
	sb := g.Adj(sa)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Rendezvous(g, sa, sb, AlgWhiteboard, Options{
			Seed: uint64(i) + 1, Delta: g.MinDegree(),
		})
		if err != nil || !res.Met {
			b.Fatalf("run %d failed: %v met=%v", i, err, res != nil && res.Met)
		}
	}
}

// BenchmarkNoboardRendezvous measures one end-to-end Theorem-2 run.
func BenchmarkNoboardRendezvous(b *testing.B) {
	rng := rand.New(rand.NewPCG(7, 8))
	g, err := PlantedMinDegree(256, 84, rng)
	if err != nil {
		b.Fatal(err)
	}
	sa := Vertex(0)
	sb := g.Adj(sa)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Rendezvous(g, sa, sb, AlgNoWhiteboard, Options{
			Seed: uint64(i) + 1, Delta: g.MinDegree(), MaxRounds: 1 << 40,
		})
		if err != nil || !res.Met {
			b.Fatalf("run %d failed: %v", i, err)
		}
	}
}

// BenchmarkSweepBaseline measures the trivial O(∆) strategy.
func BenchmarkSweepBaseline(b *testing.B) {
	g, err := Complete(512)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Rendezvous(g, 0, 1, AlgSweep, Options{Seed: uint64(i) + 1})
		if err != nil || !res.Met {
			b.Fatalf("run %d failed: %v", i, err)
		}
	}
}

// BenchmarkAdversaryBuild measures Lemma 9's adaptive construction and
// the Theorem-6 glue.
func BenchmarkAdversaryBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := lower.Theorem6Instance(256, lower.NewGreedySweep, lower.NewGreedySweep); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE12Families(b *testing.B) { benchExperiment(b, "E12") }
