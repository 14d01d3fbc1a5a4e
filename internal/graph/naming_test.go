package graph_test

import (
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"fnr/internal/graph"
	"fnr/internal/sim"
)

// viewProbe records, on its one acting round, what the view reads:
// every per-port ID and the bulk append.
type viewProbe struct {
	perPort, bulk []int64
}

func (s *viewProbe) Init(*sim.StepContext) {}

func (s *viewProbe) Next(v *sim.View) sim.Action {
	s.perPort = s.perPort[:0]
	for p := range v.Degree {
		s.perPort = append(s.perPort, v.NeighborID(p))
	}
	s.bulk = v.AppendNeighborIDs(s.bulk[:0])
	return sim.Halt()
}

type halter struct{}

func (halter) Init(*sim.StepContext)     {}
func (halter) Next(*sim.View) sim.Action { return sim.Halt() }

// TestNeighborIDReadsAgreeAcrossNamings checks, for every family under
// identity, permuted and sparse naming, every vertex and every port,
// that all the ways of reading a neighbor's ID agree with
// g.ID(g.Adj(v)[p]): the graph's NeighborID and IDsOfNeighbors, a
// stepper's View (per port and in bulk) and a
// Program's Env.NeighborIDs(); and that PortOfID inverts them.
func TestNeighborIDReadsAgreeAcrossNamings(t *testing.T) {
	rng := rand.New(rand.NewPCG(24, 0x1d5))
	families := graph.AllFamilies(t)
	names := make([]string, 0, len(families))
	for name := range families {
		names = append(names, name)
	}
	sort.Strings(names) // the relabelings draw from one rng
	tc := sim.NewTrialContext()
	for _, family := range names {
		for naming, g := range graph.Namings(t, families[family], rng) {
			t.Run(family+"/"+naming, func(t *testing.T) {
				checkNeighborIDReads(t, tc, g)
			})
		}
	}
}

func checkNeighborIDReads(t *testing.T, tc *sim.TrialContext, g *graph.Graph) {
	probe := &viewProbe{}
	var envIDs []int64
	prog := func(e *sim.Env) { envIDs = slices.Clone(e.NeighborIDs()) }
	for v := range graph.Vertex(g.N()) {
		want := make([]int64, 0, g.Degree(v))
		for _, w := range g.Adj(v) {
			want = append(want, g.ID(w))
		}
		for p, id := range want {
			if got := g.NeighborID(v, p); got != id {
				t.Fatalf("vertex %d: NeighborID(%d) = %d, want %d", v, p, got, id)
			}
			if got := g.PortOfID(v, id); got != p {
				t.Fatalf("vertex %d: PortOfID(%d) = %d, want port %d", v, id, got, p)
			}
		}
		if got := g.IDsOfNeighbors(v, []int64{-7}); !slices.Equal(got[1:], want) || got[0] != -7 {
			t.Fatalf("vertex %d: IDsOfNeighbors([-7]) = %v, want [-7] + %v", v, got, want)
		}

		cfg := sim.Config{
			Graph: g, StartA: v, StartB: (v + 1) % graph.Vertex(g.N()),
			NeighborIDs: true, DisableMeeting: true, MaxRounds: 1,
		}
		if _, err := tc.RunSteppers(cfg, probe, halter{}); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(probe.perPort, want) || !slices.Equal(probe.bulk, want) {
			t.Fatalf("vertex %d: View reads %v per port and %v in bulk, want %v", v, probe.perPort, probe.bulk, want)
		}
		envIDs = nil
		if _, err := sim.Run(cfg, prog, func(e *sim.Env) {}); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(envIDs, want) {
			t.Fatalf("vertex %d: Env.NeighborIDs() = %v, want %v", v, envIDs, want)
		}
	}
}
