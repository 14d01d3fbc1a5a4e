package graph

import (
	"bytes"
	"math/rand/v2"
	"testing"
)

// Codec benchmarks on fnrbench's graph-build shape. SetBytes is the
// v3 encoding's size, so MB/s reads as encoded bytes per second.

func plantedV3(b *testing.B) (*Graph, []byte) {
	g, err := PlantedMinDegree(2048, 64, rand.New(rand.NewPCG(7, 0xbe7c4)))
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := g.WriteBinaryV3(&buf); err != nil {
		b.Fatal(err)
	}
	return g, buf.Bytes()
}

func BenchmarkWriteBinaryV3Planted2048x64(b *testing.B) {
	g, enc := plantedV3(b)
	var buf bytes.Buffer
	buf.Grow(len(enc))
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if _, err := g.WriteBinaryV3(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadPlanted2048x64(b *testing.B) {
	_, enc := plantedV3(b)
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Read(bytes.NewReader(enc)); err != nil {
			b.Fatal(err)
		}
	}
}
