package sim

import (
	"math/rand/v2"
	"strings"
	"testing"

	"fnr/internal/graph"
)

// The scenario-layer semantics suite: k-agent teams, per-agent wake
// delays, and the two meeting predicates. The differential guarantee
// (a k=2, τ=0 scenario is byte-identical to the legacy two-agent
// path) is pinned here at the sim layer and again end-to-end in
// internal/engine's scenario differential suite.

// scriptStepper plays a fixed list of port moves, then waits out the
// rest of the budget. It records the round number its first Next call
// observed — the probe for the wake-delay contract (first acting
// round == τ).
type scriptStepper struct {
	moves      []int
	i          int
	firstRound int64
	sawNext    bool
}

func (s *scriptStepper) Init(ctx *StepContext) {}

func (s *scriptStepper) Next(v *View) Action {
	if !s.sawNext {
		s.sawNext = true
		s.firstRound = v.Round
	}
	if s.i < len(s.moves) {
		p := s.moves[s.i]
		s.i++
		return Move(p)
	}
	return StayFor(1 << 40)
}

// parked waits forever.
type parked struct{}

func (parked) Init(ctx *StepContext) {}
func (parked) Next(v *View) Action   { return StayFor(1 << 40) }

func pathGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g, err := graph.Path(n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// A k=2 scenario with zero delays must reproduce the legacy
// StartA/StartB run exactly — the fold the engine relies on.
func TestScenarioPairMatchesLegacyRun(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	g, err := graph.PlantedMinDegree(64, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 4; seed++ {
		legacy, err := RunTeam(Config{
			Graph: g, StartA: 0, StartB: 9, Seed: seed, MaxRounds: 1 << 20,
		}, []Stepper{newWalker(), newWalker()})
		if err != nil {
			t.Fatal(err)
		}
		scen, err := RunTeam(Config{
			Graph: g, Seed: seed, MaxRounds: 1 << 20,
			Scenario: &Scenario{Starts: []graph.Vertex{0, 9}},
		}, []Stepper{newWalker(), newWalker()})
		if err != nil {
			t.Fatal(err)
		}
		if !resultsEqual(legacy, scen) {
			t.Fatalf("seed %d: scenario pair diverged from legacy run:\nlegacy:   %+v\nscenario: %+v", seed, legacy, scen)
		}
	}
}

// newWalker builds a uniform random walker (moves to a random port
// every round) — enough structure to exercise RNG streams and
// meeting dynamics.
func newWalker() Stepper {
	return &walkerStepper{}
}

type walkerStepper struct{ ctx *StepContext }

func (w *walkerStepper) Init(ctx *StepContext) { w.ctx = ctx }
func (w *walkerStepper) Next(v *View) Action {
	if v.Degree == 0 {
		return Stay()
	}
	return Move(w.ctx.Rand.IntN(v.Degree))
}

// A delayed agent consumes its delay as counted, stay-accounted
// rounds and sees Round == τ on its first Next call; the meeting
// shifts by exactly τ when the delayed agent is the mover.
func TestWakeDelayShiftsMeetingAndAccounting(t *testing.T) {
	g := pathGraph(t, 3) // 0-1-2
	const tau = 5
	mover := &scriptStepper{moves: []int{0, 1}} // 0→1, then 1→2
	res, err := RunTeam(Config{
		Graph: g, MaxRounds: 1 << 16,
		Scenario: &Scenario{
			Starts:     []graph.Vertex{0, 2},
			WakeDelays: []int64{tau, 0},
		},
	}, []Stepper{mover, parked{}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met || res.MeetVertex != 2 {
		t.Fatalf("no rendezvous: %+v", res)
	}
	// Undelayed, the walk 0→1→2 meets the stayer at the start of
	// round 2; a wake delay of τ pushes every action τ rounds later.
	if res.MeetRound != 2+tau {
		t.Errorf("MeetRound = %d, want %d", res.MeetRound, 2+tau)
	}
	if !mover.sawNext || mover.firstRound != tau {
		t.Errorf("delayed agent's first acting round = %d (saw=%v), want %d", mover.firstRound, mover.sawNext, tau)
	}
	if res.A.Stays != tau || res.A.Moves != 2 {
		t.Errorf("delayed agent accounting = %+v, want %d stays, 2 moves", res.A, tau)
	}
}

// An asleep agent can still be met: the meeting predicate is
// positional, not "awake and co-located".
func TestAsleepAgentsCanMeet(t *testing.T) {
	g := pathGraph(t, 3)
	res, err := RunTeam(Config{
		Graph: g, MaxRounds: 1 << 16,
		Scenario: &Scenario{
			Starts:     []graph.Vertex{1, 1},
			WakeDelays: []int64{3, 7},
		},
	}, []Stepper{parked{}, parked{}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met || res.MeetRound != 0 || res.MeetVertex != 1 {
		t.Fatalf("co-located sleeping agents did not meet at round 0: %+v", res)
	}
}

// All-gather vs first-pair on a three-agent path scenario: the first
// co-location of a pair precedes the full gathering by one round.
func TestMeetingPredicates(t *testing.T) {
	g := pathGraph(t, 3)
	build := func() []Stepper {
		return []Stepper{
			&scriptStepper{moves: []int{0, 1}}, // 0→1→2
			&scriptStepper{moves: []int{1}},    // 1→2
			parked{},                           // parked at 2
		}
	}
	sc := &Scenario{Starts: []graph.Vertex{0, 1, 2}}
	gather, err := RunTeam(Config{Graph: g, MaxRounds: 1 << 16, Scenario: sc}, build())
	if err != nil {
		t.Fatal(err)
	}
	if !gather.Met || gather.MeetRound != 2 || gather.MeetVertex != 2 {
		t.Fatalf("all-gather: got %+v, want meeting at round 2, vertex 2", gather)
	}
	if len(gather.Agents) != 3 {
		t.Fatalf("k=3 run reported %d agent stats, want 3", len(gather.Agents))
	}
	if gather.A != gather.Agents[0] || gather.B != gather.Agents[1] {
		t.Errorf("A/B fields disagree with Agents[0]/Agents[1]: %+v", gather)
	}
	if got := gather.TotalMoves(); got != 3 {
		t.Errorf("TotalMoves = %d, want 3", got)
	}

	scFP := &Scenario{Starts: []graph.Vertex{0, 1, 2}, MeetFirstPair: true}
	first, err := RunTeam(Config{Graph: g, MaxRounds: 1 << 16, Scenario: scFP}, build())
	if err != nil {
		t.Fatal(err)
	}
	if !first.Met || first.MeetRound != 1 || first.MeetVertex != 2 {
		t.Fatalf("first-pair: got %+v, want meeting at round 1, vertex 2", first)
	}
}

// A k=3 team of stayers on distinct vertices never gathers: the run
// must exhaust its budget, not report a phantom meeting.
func TestAllGatherRequiresEveryAgent(t *testing.T) {
	g := pathGraph(t, 4)
	res, err := RunTeam(Config{
		Graph: g, MaxRounds: 64,
		Scenario: &Scenario{Starts: []graph.Vertex{0, 0, 3}},
	}, []Stepper{parked{}, parked{}, parked{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Met {
		t.Fatalf("two of three agents co-located reported Met under all-gather: %+v", res)
	}
}

func TestScenarioValidation(t *testing.T) {
	g := pathGraph(t, 3)
	team := func(k int) []Stepper {
		out := make([]Stepper, k)
		for i := range out {
			out[i] = parked{}
		}
		return out
	}
	cases := []struct {
		name string
		sc   *Scenario
		k    int
		want string
	}{
		{"too few agents", &Scenario{Starts: []graph.Vertex{0}}, 1, "at least 2 agents"},
		{"too many agents", &Scenario{Starts: make([]graph.Vertex, MaxAgents+1)}, MaxAgents + 1, "limit is 256"},
		{"start out of range", &Scenario{Starts: []graph.Vertex{0, 7}}, 2, "agent b start vertex 7 out of range"},
		{"delay length mismatch", &Scenario{Starts: []graph.Vertex{0, 1, 2}, WakeDelays: []int64{1}}, 3, "1 wake delays for 3 agents"},
		{"negative delay", &Scenario{Starts: []graph.Vertex{0, 1}, WakeDelays: []int64{0, -4}}, 2, "wake delay -4 is negative"},
	}
	for _, tc := range cases {
		_, err := RunTeam(Config{Graph: g, MaxRounds: 16, Scenario: tc.sc}, team(tc.k))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
	// Team length must match the scenario's agent count.
	_, err := RunTeam(Config{Graph: g, MaxRounds: 16,
		Scenario: &Scenario{Starts: []graph.Vertex{0, 1, 2}}}, team(2))
	if err == nil || !strings.Contains(err.Error(), "2 steppers for a 3-agent scenario") {
		t.Errorf("team-size mismatch error = %v", err)
	}
}

func TestLegacyPairFolding(t *testing.T) {
	cases := []struct {
		name string
		sc   Scenario
		ok   bool
	}{
		{"plain pair", Scenario{Starts: []graph.Vertex{3, 8}}, true},
		{"pair with zero delays", Scenario{Starts: []graph.Vertex{3, 8}, WakeDelays: []int64{0, 0}}, true},
		{"pair with delay", Scenario{Starts: []graph.Vertex{3, 8}, WakeDelays: []int64{0, 4}}, false},
		{"first-pair predicate", Scenario{Starts: []graph.Vertex{3, 8}, MeetFirstPair: true}, false},
		{"three agents", Scenario{Starts: []graph.Vertex{3, 8, 1}}, false},
	}
	for _, tc := range cases {
		a, b, ok := tc.sc.LegacyPair()
		if ok != tc.ok {
			t.Errorf("%s: LegacyPair ok = %v, want %v", tc.name, ok, tc.ok)
			continue
		}
		if ok && (a != 3 || b != 8) {
			t.Errorf("%s: LegacyPair = (%d, %d), want (3, 8)", tc.name, a, b)
		}
	}
}

func TestAgentNameString(t *testing.T) {
	for _, tc := range []struct {
		n    AgentName
		want string
	}{{0, "a"}, {1, "b"}, {25, "z"}, {26, "agent26"}, {255, "agent255"}} {
		if got := tc.n.String(); got != tc.want {
			t.Errorf("AgentName(%d).String() = %q, want %q", uint8(tc.n), got, tc.want)
		}
	}
}

// Lane execution of a k=3 scenario must match solo runs trial for
// trial — quarantine/reuse machinery included.
func TestTeamLaneMatchesSoloRuns(t *testing.T) {
	g := pathGraph(t, 5)
	sc := &Scenario{Starts: []graph.Vertex{0, 2, 4}, WakeDelays: []int64{0, 3, 0}}
	cfg := Config{Graph: g, MaxRounds: 1 << 16, Scenario: sc}
	build := func() ([]Stepper, error) {
		return []Stepper{newWalker(), newWalker(), newWalker()}, nil
	}
	const trials = 24
	want := make([]*Result, trials)
	for i := range want {
		team, _ := build()
		c := cfg
		c.Seed = uint64(i + 1)
		res, err := RunTeam(c, team)
		if err != nil {
			t.Fatal(err)
		}
		cp := *res
		cp.Agents = append([]AgentStats(nil), res.Agents...)
		want[i] = &cp
	}
	lane := NewTeamLane(build)
	defer lane.Close()
	got := make([]*Result, trials)
	mark := lane.Run(cfg,
		func(i int) uint64 { return uint64(i + 1) },
		0, trials,
		func(i int, res *Result, trialErr error) {
			if trialErr != nil {
				t.Errorf("trial %d: %v", i, trialErr)
				return
			}
			cp := *res
			cp.Agents = append([]AgentStats(nil), res.Agents...)
			got[i] = &cp
		})
	if mark != trials {
		t.Fatalf("lane watermark = %d, want %d", mark, trials)
	}
	for i := range got {
		if !resultsEqual(got[i], want[i]) {
			t.Errorf("trial %d: lane diverged:\nlane: %+v\nsolo: %+v", i, got[i], want[i])
		}
	}
}
