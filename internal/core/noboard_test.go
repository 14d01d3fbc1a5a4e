package core

import (
	"math/rand/v2"
	"testing"

	"fnr/internal/graph"
	"fnr/internal/sim"
)

func TestNoboardSchedule(t *testing.T) {
	p := PracticalParams()
	s, err := newNoboardSchedule(p, 1024, 256)
	if err != nil {
		t.Fatal(err)
	}
	if s.beta != 16 {
		t.Errorf("beta = %d, want 16", s.beta)
	}
	if s.phases != 64 {
		t.Errorf("phases = %d, want 64", s.phases)
	}
	if s.phaseLen != s.residency*s.residency {
		t.Errorf("phaseLen = %d, want L² = %d", s.phaseLen, s.residency*s.residency)
	}
	if s.residency < 8 {
		t.Errorf("residency = %d, want ≥ 8", s.residency)
	}
	if s.prob <= 0 || s.prob > 1 {
		t.Errorf("prob = %v out of (0, 1]", s.prob)
	}
	if s.phaseEnd(0) != s.tPrime || s.phaseEnd(2) != s.tPrime+2*s.phaseLen {
		t.Error("phaseEnd arithmetic wrong")
	}
	// Both agents must derive the identical schedule.
	if s2, err := newNoboardSchedule(p, 1024, 256); err != nil || s2 != s {
		t.Errorf("schedule derivation not deterministic (err=%v)", err)
	}
}

func TestNoboardRendezvousOnPlanted(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 78))
	g, err := graph.PlantedMinDegree(256, 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	a, b := adjacentStarts(t, g)
	met := 0
	for seed := uint64(0); seed < 3; seed++ {
		st := &NoboardStats{}
		progA, progB := NoboardSteppers(PracticalParams(), g.MinDegree(), st)
		res, err := sim.RunSteppers(sim.Config{
			Graph: g, StartA: a, StartB: b,
			NeighborIDs: true, Whiteboards: false, // the point of Theorem 2
			Seed: seed, MaxRounds: 1 << 40,
		}, progA, progB)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if st.LateConstruct {
			t.Errorf("seed %d: Construct missed the t' barrier (t'=%d)", seed, st.TPrime)
		}
		if res.Met {
			met++
			if res.MeetRound < st.TPrime {
				t.Errorf("seed %d: met at %d before the t'=%d barrier", seed, res.MeetRound, st.TPrime)
			}
		}
	}
	// The w.h.p. guarantee under practical constants: allow one miss
	// across seeds, but not systematic failure.
	if met < 2 {
		t.Fatalf("only %d/3 seeds achieved rendezvous", met)
	}
}

func TestNoboardRendezvousOnComplete(t *testing.T) {
	g, err := graph.Complete(128)
	if err != nil {
		t.Fatal(err)
	}
	st := &NoboardStats{}
	progA, progB := NoboardSteppers(PracticalParams(), g.MinDegree(), st)
	res, err := sim.RunSteppers(sim.Config{
		Graph: g, StartA: 0, StartB: 1,
		NeighborIDs: true, Seed: 5, MaxRounds: 1 << 40,
	}, progA, progB)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Fatal("no rendezvous on K128")
	}
}

// The Theorem-2 algorithm must never touch whiteboards: running it with
// whiteboards disabled (as above) would panic on any write, and this
// test additionally runs it with whiteboards ENABLED and asserts zero
// writes occurred.
func TestNoboardWritesNothing(t *testing.T) {
	g, err := graph.Complete(64)
	if err != nil {
		t.Fatal(err)
	}
	progA, progB := NoboardSteppers(PracticalParams(), g.MinDegree(), nil)
	res, err := sim.RunSteppers(sim.Config{
		Graph: g, StartA: 0, StartB: 1,
		NeighborIDs: true, Whiteboards: true,
		Seed: 9, MaxRounds: 1 << 40,
	}, progA, progB)
	if err != nil {
		t.Fatal(err)
	}
	if res.Writes != 0 {
		t.Fatalf("no-whiteboard algorithm performed %d writes", res.Writes)
	}
}

func TestNoboardPermutedIDs(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 14))
	g0, err := graph.PlantedMinDegree(200, 80, rng)
	if err != nil {
		t.Fatal(err)
	}
	b := graph.Rebuild(g0)
	b.PermuteIDs(rng) // tight naming preserved, IDs decorrelated
	g := b.MustBuild()
	a, bb := adjacentStarts(t, g)
	progA, progB := NoboardSteppers(PracticalParams(), g.MinDegree(), nil)
	res, err := sim.RunSteppers(sim.Config{
		Graph: g, StartA: a, StartB: bb,
		NeighborIDs: true, Seed: 21, MaxRounds: 1 << 40,
	}, progA, progB)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Fatal("no rendezvous with permuted IDs")
	}
}

// Exercise the full phase schedule of both noboard agents: detection
// disabled so no incidental meeting can cut the run short. Agent a must
// record residencies inside its slot windows; neither agent may
// overflow its phases on this comfortably-sized instance.
func TestNoboardFullScheduleRuns(t *testing.T) {
	rng := rand.New(rand.NewPCG(55, 56))
	g, err := graph.PlantedMinDegree(128, 48, rng)
	if err != nil {
		t.Fatal(err)
	}
	a, b := adjacentStarts(t, g)
	st := &NoboardStats{}
	progA, progB := NoboardSteppers(PracticalParams(), g.MinDegree(), st)
	sched, err := newNoboardSchedule(PracticalParams(), g.NPrime(), g.MinDegree())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunSteppers(sim.Config{
		Graph: g, StartA: a, StartB: b,
		NeighborIDs:    true,
		Seed:           2,
		MaxRounds:      sched.phaseEnd(sched.phases) + 10,
		DisableMeeting: true,
	}, progA, progB)
	if err != nil {
		t.Fatal(err)
	}
	if st.LateConstruct {
		t.Fatal("construct missed the barrier on a small instance")
	}
	if st.PhiA == 0 || st.PhiB == 0 {
		t.Fatalf("empty probe sets: |Φa|=%d |Φb|=%d", st.PhiA, st.PhiB)
	}
	if len(st.Residencies) == 0 {
		t.Fatal("agent a recorded no slot residencies")
	}
	if len(st.Residencies) != st.PhiA {
		t.Fatalf("%d residencies for %d Φa vertices (overflowA=%d)",
			len(st.Residencies), st.PhiA, st.OverflowPhasesA)
	}
	for i, r := range st.Residencies {
		if r.From < st.TPrime || r.To < r.From {
			t.Fatalf("residency %d malformed: %+v (t'=%d)", i, r, st.TPrime)
		}
		// Residency must be meaningfully long: L minus travel slack.
		if r.To-r.From < sched.residency-6 {
			t.Fatalf("residency %d too short: %+v (L=%d)", i, r, sched.residency)
		}
	}
	if st.OverflowPhasesA != 0 || st.OverflowPhasesB != 0 {
		t.Fatalf("unexpected overflows: a=%d b=%d", st.OverflowPhasesA, st.OverflowPhasesB)
	}
	// Both agents halt once all phases are done.
	if !res.A.Halted || !res.B.Halted {
		t.Fatalf("agents did not halt after the schedule: a=%v b=%v", res.A.Halted, res.B.Halted)
	}
}
