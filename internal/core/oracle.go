package core

import "fnr/internal/graph"

// DenseSetOracle computes T = N⁺(N⁺(v0)) with via-paths directly from
// the ground-truth graph. The result is (v0, δ+1, 2)-dense (every
// u ∈ N⁺(v0) has its whole closed neighborhood inside T), which is the
// strongest set the Construct procedure could hope to build.
//
// It exists for mechanism isolation: feeding it to MainPhaseSteppers
// starts agent a warm, so a run measures Lemma 1's Main-Rendezvous cost
// O(√(n∆)/δ·log n) alone, without the Construct prefix and without the
// incidental meetings that happen while a wanders during Construct.
func DenseSetOracle(g *graph.Graph, v0 graph.Vertex) (t []int64, via map[int64]int64) {
	via = make(map[int64]int64)
	homeID := g.ID(v0)
	add := func(id, through int64) {
		if _, ok := via[id]; ok {
			return
		}
		via[id] = through
		t = append(t, id)
	}
	add(homeID, homeID)
	for _, u := range g.Adj(v0) {
		add(g.ID(u), g.ID(u)) // distance 1: direct
	}
	for _, u := range g.Adj(v0) {
		uID := g.ID(u)
		for _, w := range g.Adj(u) {
			add(g.ID(w), uID) // distance ≤ 2 via u
		}
	}
	return t, via
}
