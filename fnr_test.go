package fnr

import (
	"encoding/json"
	"math/rand/v2"
	"testing"
)

func TestRendezvousAllAlgorithms(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	g, err := PlantedMinDegree(128, 40, rng)
	if err != nil {
		t.Fatal(err)
	}
	sa := Vertex(0)
	sb := g.Adj(sa)[0]
	algos := []struct {
		algo Algorithm
		opt  Options
	}{
		{AlgWhiteboard, Options{Delta: g.MinDegree()}},
		{AlgWhiteboard, Options{}}, // doubling estimation
		{AlgNoWhiteboard, Options{Delta: g.MinDegree()}},
		{AlgSweep, Options{}},
		{AlgDFS, Options{}},
		{AlgStayWalk, Options{}},
		{AlgWalkPair, Options{MaxRounds: 1 << 22}},
	}
	for _, tc := range algos {
		tc.opt.Seed = 5
		if tc.opt.MaxRounds == 0 {
			tc.opt.MaxRounds = 1 << 40
		}
		res, err := Rendezvous(g, sa, sb, tc.algo, tc.opt)
		if err != nil {
			t.Fatalf("%v: %v", tc.algo, err)
		}
		if !res.Met {
			t.Errorf("%v: no rendezvous", tc.algo)
		}
	}
}

func TestRendezvousBirthdayOnComplete(t *testing.T) {
	g, err := Complete(64)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Rendezvous(g, 0, 1, AlgBirthday, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Fatal("birthday strategy failed on K64")
	}
}

func TestRendezvousValidation(t *testing.T) {
	g, err := Complete(8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Rendezvous(nil, 0, 1, AlgSweep, Options{}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := Rendezvous(g, 0, 1, AlgNoWhiteboard, Options{}); err == nil {
		t.Error("AlgNoWhiteboard without Delta accepted")
	}
	if _, err := Rendezvous(g, 0, 1, Algorithm(99), Options{}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestParseAlgorithm(t *testing.T) {
	// Round-trip over the dynamic registry listing: every registered
	// spec must parse back to its own Algorithm value.
	infos := Algorithms()
	if len(infos) < 7 {
		t.Fatalf("registry lists %d algorithms, want ≥ 7", len(infos))
	}
	for _, info := range infos {
		got, err := ParseAlgorithm(info.Algorithm.String())
		if err != nil || got != info.Algorithm {
			t.Errorf("round trip %v failed: %v, %v", info.Algorithm, got, err)
		}
		if info.Name != info.Algorithm.String() {
			t.Errorf("info name %q != String() %q", info.Name, info.Algorithm.String())
		}
	}
	if _, err := ParseAlgorithm("nope"); err == nil {
		t.Error("ParseAlgorithm accepted garbage")
	}
}

// The historical constants must stay aligned with the registry order
// the built-in specs declare.
func TestAlgorithmConstantsMatchRegistry(t *testing.T) {
	want := map[Algorithm]string{
		AlgWhiteboard:   "whiteboard",
		AlgNoWhiteboard: "noboard",
		AlgSweep:        "sweep",
		AlgDFS:          "dfs",
		AlgStayWalk:     "staywalk",
		AlgWalkPair:     "walkpair",
		AlgBirthday:     "birthday",
	}
	for a, name := range want {
		if a.String() != name {
			t.Errorf("constant %d maps to %q, want %q", int(a), a.String(), name)
		}
	}
	if Algorithm(-1).String() != "Algorithm(-1)" {
		t.Errorf("out-of-range String() = %q", Algorithm(-1).String())
	}
}

// The registry's declared capabilities must configure the simulation:
// strategies without the whiteboard capability physically cannot
// write, and KT0-capable strategies run without neighbor IDs.
func TestAlgorithmCapabilities(t *testing.T) {
	byName := map[string]AlgorithmInfo{}
	for _, info := range Algorithms() {
		byName[info.Name] = info
	}
	if !byName["whiteboard"].NeedsWhiteboards || !byName["whiteboard"].NeedsNeighborIDs {
		t.Error("whiteboard capabilities wrong")
	}
	if byName["noboard"].NeedsWhiteboards || !byName["noboard"].NeedsDelta {
		t.Error("noboard capabilities wrong")
	}
	if byName["staywalk"].NeedsNeighborIDs || byName["walkpair"].NeedsNeighborIDs {
		t.Error("walk strategies must be KT0-capable")
	}
}

func TestRunBatchFacade(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	g, err := PlantedMinDegree(128, 40, rng)
	if err != nil {
		t.Fatal(err)
	}
	sa := Vertex(0)
	sb := g.Adj(sa)[0]
	batch := Batch{
		Graph: g, StartA: sa, StartB: sb,
		Algorithm: "whiteboard", Delta: g.MinDegree(),
		Trials: 12, Seed: 4, Workers: 4,
	}
	agg, err := RunBatch(t.Context(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Trials != 12 || agg.Met == 0 {
		t.Fatalf("aggregate %+v", agg)
	}
	outcomes, err := RunBatchOutcomes(t.Context(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 12 {
		t.Fatalf("got %d outcomes", len(outcomes))
	}
	// The batch surface must reject capability mismatches.
	bad := batch
	bad.Algorithm = "noboard"
	bad.Delta = 0
	if _, err := RunBatch(t.Context(), bad); err == nil {
		t.Error("noboard batch without Delta accepted")
	}
}

// RunBatch and the job layer (what fnrd serves) must return the same
// aggregate bytes for the same batch — here the served spec of the CI
// server smoke: whiteboard on planted(1024, 181), seed 7, 200 trials.
func TestRunBatchMatchesJobAggregate(t *testing.T) {
	spec := JobSpec{
		Algorithm: "whiteboard",
		Workload:  &JobWorkload{Kind: "planted", N: 1024, D: 181, Seed: 7},
		Trials:    200,
		Seed:      7,
	}
	res, err := RunJob(t.Context(), spec, JobExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(res.Aggregate())
	if err != nil {
		t.Fatal(err)
	}
	b := res.Batch
	agg, err := RunBatch(t.Context(), Batch{
		Graph: b.Graph, StartA: b.StartA, StartB: b.StartB,
		Algorithm: "whiteboard", Delta: b.Graph.MinDegree(),
		Trials: 200, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(agg)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("RunBatch aggregate differs from the job layer's:\nRunBatch: %s\njob:      %s", got, want)
	}
}

func TestWhiteboardStatsExposed(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	g, err := PlantedMinDegree(128, 40, rng)
	if err != nil {
		t.Fatal(err)
	}
	st := &WhiteboardStats{}
	res, err := Rendezvous(g, 0, g.Adj(0)[0], AlgWhiteboard, Options{
		Seed: 2, Delta: g.MinDegree(), WhiteboardStats: st,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Fatal("no rendezvous")
	}
	// Stats may be partially filled if the meeting interrupted
	// Construct; either way the struct must be safe to read.
	if st.Iterations < 0 || st.StrictRuns < 0 {
		t.Fatal("stats corrupted")
	}
}

func TestHardInstances(t *testing.T) {
	kinds := []struct {
		kind HardKind
		n    int
	}{
		{HardTwoStars, 100},
		{HardStarClique, 64},
		{HardKT0, 64},
		{HardDistance2, 101},
		{HardDeterministic, 128},
	}
	for _, tc := range kinds {
		inst, err := HardInstance(tc.kind, tc.n)
		if err != nil {
			t.Fatalf("kind %d: %v", tc.kind, err)
		}
		if err := inst.G.Validate(); err != nil {
			t.Fatalf("kind %d: invalid graph: %v", tc.kind, err)
		}
		if inst.LowerBound <= 0 {
			t.Errorf("kind %d: no lower bound", tc.kind)
		}
	}
	if _, err := HardInstance(HardKind(99), 10); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestDeterministicHardInstanceHoldsOff(t *testing.T) {
	inst, err := HardInstance(HardDeterministic, 128)
	if err != nil {
		t.Fatal(err)
	}
	a, b := SweepAgentsForInstance()
	res, err := RunPrograms(SimConfig{
		Graph: inst.G, StartA: inst.StartA, StartB: inst.StartB,
		NeighborIDs: true, MaxRounds: inst.LowerBound,
	}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Met {
		t.Fatalf("met at %d, theorem forbids before %d", res.MeetRound, inst.LowerBound)
	}
}

func TestCustomProgramAPI(t *testing.T) {
	g, err := Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	chaser := func(e *Env) {
		n := e.NPrime()
		for {
			if err := e.MoveToID((e.HereID() + 1) % n); err != nil {
				return
			}
		}
	}
	waiter := func(e *Env) {
		for {
			e.Stay()
		}
	}
	res, err := RunPrograms(SimConfig{
		Graph: g, StartA: 0, StartB: 4, NeighborIDs: true, MaxRounds: 20,
	}, chaser, waiter)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met || res.MeetVertex != 4 {
		t.Fatalf("custom program rendezvous failed: %+v", res)
	}
}

// Custom steppers run through the re-exported state-machine surface.
type testChaseStepper struct{ n int64 }

func (s *testChaseStepper) Init(ctx *StepContext) { s.n = ctx.NPrime }

func (s *testChaseStepper) Next(v *View) Action {
	if p, ok := v.PortOfID((v.HereID + 1) % s.n); ok {
		return ActMove(p)
	}
	return ActHalt()
}

type testWaitStepper struct{}

func (testWaitStepper) Init(*StepContext) {}

func (testWaitStepper) Next(*View) Action { return ActStayFor(1 << 20) }

func TestCustomStepperAPI(t *testing.T) {
	g, err := Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSteppers(SimConfig{
		Graph: g, StartA: 0, StartB: 4, NeighborIDs: true, MaxRounds: 20,
	}, &testChaseStepper{}, testWaitStepper{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met || res.MeetVertex != 4 {
		t.Fatalf("custom stepper rendezvous failed: %+v", res)
	}
	// Mixing styles: a coroutine-hosted Program against the stepper.
	waiter := func(e *Env) {
		for {
			e.Stay()
		}
	}
	res, err = RunSteppers(SimConfig{
		Graph: g, StartA: 0, StartB: 4, NeighborIDs: true, MaxRounds: 20,
	}, &testChaseStepper{}, ProgramStepper(waiter))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met || res.MeetVertex != 4 {
		t.Fatalf("mixed-style rendezvous failed: %+v", res)
	}
}

// Seed-0 regression: Options.Seed == 0 used to be normalized to 1 in
// Rendezvous only, so the same logical run differed between entry
// points (Rendezvous vs RunPrograms vs the batch engine). The default
// now lives in the simulator; every entry point must agree.
func TestSeedZeroAgreesAcrossEntryPoints(t *testing.T) {
	g, err := Complete(12)
	if err != nil {
		t.Fatal(err)
	}
	viaFacade := func(seed uint64) *Result {
		res, err := Rendezvous(g, 0, 7, AlgWalkPair, Options{Seed: seed, MaxRounds: 1 << 22})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	walker := func(e *Env) {
		for {
			if err := e.MoveToPort(e.Rand().IntN(e.Degree())); err != nil {
				panic(err)
			}
		}
	}
	viaPrograms := func(seed uint64) *Result {
		res, err := RunPrograms(SimConfig{Graph: g, StartA: 0, StartB: 7, Seed: seed, MaxRounds: 1 << 22}, walker, walker)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// Result carries a per-agent slice on k > 2 runs, so compare the
	// two-agent fields directly.
	sameResult := func(a, b *Result) bool {
		return a.Met == b.Met && a.MeetRound == b.MeetRound && a.MeetVertex == b.MeetVertex &&
			a.Rounds == b.Rounds && a.A == b.A && a.B == b.B && a.Writes == b.Writes
	}
	// Seed 0 and seed 1 are the same run on every path…
	if !sameResult(viaFacade(0), viaFacade(1)) {
		t.Error("Rendezvous: Seed 0 and Seed 1 differ")
	}
	if !sameResult(viaPrograms(0), viaPrograms(1)) {
		t.Error("RunPrograms: Seed 0 and Seed 1 differ")
	}
	// …and the paths agree with each other (walkpair is exactly the
	// two-walker program pair).
	if !sameResult(viaFacade(0), viaPrograms(0)) {
		t.Errorf("entry points disagree on the default-seeded run:\nRendezvous:  %+v\nRunPrograms: %+v",
			*viaFacade(0), *viaPrograms(0))
	}
}

func TestExperimentsRegistryExposed(t *testing.T) {
	if len(Experiments()) != 15 {
		t.Fatalf("got %d experiments", len(Experiments()))
	}
	if _, ok := ExperimentByID("A2"); !ok {
		t.Fatal("A2 missing")
	}
}
