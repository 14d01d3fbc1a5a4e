package graph

import (
	"math/rand/v2"
	"testing"
)

// Generation benchmarks: the CI workflow runs these once per push
// (-bench=Generate -benchtime=1x) as a large-n smoke, so every entry
// must finish in seconds, not minutes.

func benchPlanted(b *testing.B, n, d int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewPCG(7, 0xbe7c4))
		g, err := PlantedMinDegree(n, d, rng)
		if err != nil {
			b.Fatal(err)
		}
		if g.MinDegree() < d {
			b.Fatalf("δ=%d < %d", g.MinDegree(), d)
		}
	}
}

func BenchmarkGeneratePlanted1024x181(b *testing.B) { benchPlanted(b, 1024, 181) }

// BenchmarkGeneratePlanted2048x64 is fnrbench's graph-build and cold
// fnrd shape; BenchmarkGeneratePlanted4096x128 is the paper-batch and
// warm fnrd shape.
func BenchmarkGeneratePlanted2048x64(b *testing.B)   { benchPlanted(b, 2048, 64) }
func BenchmarkGeneratePlanted4096x128(b *testing.B)  { benchPlanted(b, 4096, 128) }
func BenchmarkGeneratePlanted4096x64(b *testing.B)   { benchPlanted(b, 4096, 64) }
func BenchmarkGeneratePlanted16384x128(b *testing.B) { benchPlanted(b, 16384, 128) }

// BenchmarkGeneratePlanted65536x256 is the large scaling preset's
// graph — the acceptance datapoint for CSR-era generation speed.
func BenchmarkGeneratePlanted65536x256(b *testing.B) { benchPlanted(b, 65536, 256) }

func BenchmarkGenerateGNPGeometric65536(b *testing.B) {
	b.ReportAllocs()
	p := 256.0 / 65536
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewPCG(7, 7))
		if _, err := GNP(65536, p, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerateGNPExact1024(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewPCG(7, 7))
		if _, err := GNPExact(1024, 0.18, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerateRandomRegular2048x64(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewPCG(7, 7))
		if _, err := RandomRegular(2048, 64, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateRebuildCSR isolates the Build step (CSR assembly +
// derived arrays) from edge generation.
func BenchmarkGenerateRebuildCSR(b *testing.B) {
	rng := rand.New(rand.NewPCG(7, 0xbe7c4))
	g, err := PlantedMinDegree(4096, 64, rng)
	if err != nil {
		b.Fatal(err)
	}
	builder := Rebuild(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := builder.Build(); err != nil {
			b.Fatal(err)
		}
	}
}
