// Package algo is the pluggable rendezvous-strategy registry. Every
// strategy — the paper's two algorithms, the baselines, and any
// future addition — self-describes as a Spec and registers itself at
// init time; the fnr facade, the batch engine and the CLIs all derive
// their algorithm lists from this one table instead of hard-coded
// switches.
//
// A strategy package registers itself from an init function:
//
//	func init() {
//		algo.Register(algo.Spec{
//			Name: "sweep",
//			Caps: algo.Caps{NeighborIDs: true},
//			BuildSteppers: func(o algo.BuildOpts) (a, b sim.Stepper, err error) {
//				return StayerStepper(), SweepStepper(), nil
//			},
//		})
//	}
//
// and consumers pull it in with a blank import (the registration
// idiom), e.g. `import _ "fnr/internal/algo/paper"`.
package algo

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"

	"fnr/internal/core"
	"fnr/internal/sim"
)

// ErrDeltaRequired is returned (wrapped) by Steppers and Team when a
// strategy whose Caps.NeedsDelta is set is built without a positive
// Delta.
var ErrDeltaRequired = errors.New("algorithm requires a known minimum degree δ (Delta)")

// ErrUnknown is returned (wrapped) when a name resolves to no
// registered spec.
var ErrUnknown = errors.New("unknown algorithm")

// Caps describes the simulation capabilities a strategy needs. The
// engine and the fnr facade translate them directly into sim.Config
// switches, so a strategy physically cannot use a capability it does
// not declare.
type Caps struct {
	// NeighborIDs requires the KT1 model: agents see the IDs of their
	// current vertex's neighbors.
	NeighborIDs bool
	// Whiteboards requires per-vertex whiteboards.
	Whiteboards bool
	// NeedsDelta requires BuildOpts.Delta > 0 (a known minimum
	// degree); building without it fails with ErrDeltaRequired.
	NeedsDelta bool
}

// BuildOpts carries the per-run inputs a strategy may consume.
type BuildOpts struct {
	// Params holds the algorithm constants (never zero — callers
	// default it to core.PracticalParams()).
	Params core.Params
	// Delta is the minimum degree known to the agents; 0 means
	// unknown (strategies that can estimate it do so, strategies with
	// Caps.NeedsDelta fail).
	Delta int
	// WhiteboardStats, if non-nil, collects the Theorem-1 algorithm's
	// diagnostics. Other strategies ignore it.
	WhiteboardStats *core.WhiteboardStats
	// NoboardStats, if non-nil, collects the Theorem-2 algorithm's
	// diagnostics. Other strategies ignore it.
	NoboardStats *core.NoboardStats
}

// Spec is one registered strategy.
type Spec struct {
	// Name is the unique CLI-facing identifier ("whiteboard",
	// "sweep", …).
	Name string
	// Order ranks specs in listings and must be unique: the listing
	// index is the public fnr.Algorithm value, so a collision would
	// silently renumber existing strategies. The seven built-ins use
	// 0–6; third-party specs must pick a distinct Order ≥ 100
	// (Register panics on a duplicate, including the zero value
	// colliding with the built-in 0).
	Order int
	// Summary is a one-line description for -algo discovery output.
	Summary string
	// Caps declares the simulation capabilities the strategy needs.
	Caps Caps
	// Build constructs a fresh direct-style program pair for one run
	// (programs are stateful closures). A spec sets exactly one of
	// Build and BuildSteppers; Register lifts a Build-only spec with
	// SteppersFromPrograms, so its programs run on coroutines wherever
	// the strategy runs. The built-in strategies use BuildSteppers.
	Build func(o BuildOpts) (a, b sim.Program, err error)
	// BuildSteppers constructs a fresh pair of state-machine steppers
	// for one run: the form every entry point runs — single runs
	// (fnr.Rendezvous) and batch trials alike, so the two agree by
	// construction.
	BuildSteppers func(o BuildOpts) (a, b sim.Stepper, err error)
	// BuildTeam, when non-nil, constructs the strategy for a k-agent
	// scenario (k > 2): one stepper per agent, in team order. It is
	// never consulted at k=2 — Spec.Team routes the pair case through
	// BuildSteppers so two-agent scenarios stay byte-identical to the
	// legacy path — and a nil BuildTeam means the strategy supports
	// exactly two agents (Team fails loudly for larger k). The
	// oblivious baselines support any k; the paper's algorithms are
	// inherently pairwise and leave it nil.
	BuildTeam func(o BuildOpts, k int) ([]sim.Stepper, error)
}

// check validates the NeedsDelta capability before any builder runs
// (via Steppers and Team), so the error is uniform.
func (s Spec) check(o BuildOpts) error {
	if s.Caps.NeedsDelta && o.Delta <= 0 {
		return fmt.Errorf("algo %q: %w", s.Name, ErrDeltaRequired)
	}
	return nil
}

// Steppers builds a fresh stepper pair after validating o against the
// spec's capabilities. Prefer this over calling BuildSteppers
// directly.
func (s Spec) Steppers(o BuildOpts) (a, b sim.Stepper, err error) {
	if err := s.check(o); err != nil {
		return nil, nil, err
	}
	if o.Params == (core.Params{}) {
		o.Params = core.PracticalParams()
	}
	return s.BuildSteppers(o)
}

// Team builds a fresh k-agent stepper team after validating o against
// the spec's capabilities. k=2 always routes through the stepper-pair
// builder — guaranteeing a two-agent scenario runs the exact steppers
// the legacy path runs — and k>2 requires BuildTeam: strategies
// without one (the paper's pairwise algorithms) fail loudly here
// rather than silently degrading.
func (s Spec) Team(o BuildOpts, k int) ([]sim.Stepper, error) {
	if k == 2 {
		a, b, err := s.Steppers(o)
		if err != nil {
			sim.Finish(b)
			sim.Finish(a)
			return nil, err
		}
		return []sim.Stepper{a, b}, nil
	}
	if s.BuildTeam == nil {
		return nil, fmt.Errorf("algo %q does not support %d agents (two-agent strategy)", s.Name, k)
	}
	if k < 2 {
		return nil, fmt.Errorf("algo %q: team size %d < 2", s.Name, k)
	}
	if err := s.check(o); err != nil {
		return nil, err
	}
	if o.Params == (core.Params{}) {
		o.Params = core.PracticalParams()
	}
	team, err := s.BuildTeam(o, k)
	if err != nil {
		return nil, err
	}
	if len(team) != k {
		for i := len(team) - 1; i >= 0; i-- {
			sim.Finish(team[i])
		}
		return nil, fmt.Errorf("algo %q: team builder returned %d steppers, want %d", s.Name, len(team), k)
	}
	return team, nil
}

// SupportsTeam reports whether the strategy can run k-agent scenarios
// for k > 2 (two-agent scenarios run on every strategy).
func (s Spec) SupportsTeam() bool { return s.BuildTeam != nil }

// SteppersFromPrograms lifts a Program-pair builder into a
// stepper-pair builder by hosting each program on a lightweight
// coroutine (sim.NewProgramStepper): direct-style strategies run
// everywhere without being rewritten as state machines. Register
// applies it to every Build-only spec.
func SteppersFromPrograms(build func(o BuildOpts) (a, b sim.Program, err error)) func(o BuildOpts) (a, b sim.Stepper, err error) {
	return func(o BuildOpts) (sim.Stepper, sim.Stepper, error) {
		a, b, err := build(o)
		if err != nil {
			return nil, nil, err
		}
		return sim.NewProgramStepper(a), sim.NewProgramStepper(b), nil
	}
}

var (
	mu       sync.RWMutex
	registry = map[string]Spec{}
)

// Register adds a spec to the registry, lifting a Build-only spec
// with SteppersFromPrograms(Build). It panics on an empty name, on a
// spec that sets both or neither of Build and BuildSteppers, on a
// duplicate name, or on a duplicate Order — all programmer errors at
// init time. The Order check is what keeps fnr.Algorithm values
// stable: an unset (zero) Order on a third-party spec would otherwise
// sort among the built-ins and renumber them.
func Register(s Spec) {
	if s.Name == "" {
		panic("algo: Register with empty name")
	}
	if (s.Build == nil) == (s.BuildSteppers == nil) {
		panic(fmt.Sprintf("algo: Register(%q) needs exactly one of Build and BuildSteppers", s.Name))
	}
	if s.BuildSteppers == nil {
		s.BuildSteppers = SteppersFromPrograms(s.Build)
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := registry[s.Name]; dup {
		panic(fmt.Sprintf("algo: duplicate registration of %q", s.Name))
	}
	for _, prev := range registry {
		if prev.Order == s.Order {
			panic(fmt.Sprintf("algo: Register(%q) reuses Order %d of %q; orders must be unique (use ≥ 100 for non-built-ins)",
				s.Name, s.Order, prev.Name))
		}
	}
	registry[s.Name] = s
}

// Lookup returns the spec registered under name.
func Lookup(name string) (Spec, error) {
	mu.RLock()
	defer mu.RUnlock()
	s, ok := registry[name]
	if !ok {
		return Spec{}, fmt.Errorf("%w %q (registered: %v)", ErrUnknown, name, names())
	}
	return s, nil
}

// Specs returns every registered spec, sorted by (Order, Name).
func Specs() []Spec {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]Spec, 0, len(registry))
	for _, s := range registry {
		out = append(out, s)
	}
	slices.SortFunc(out, func(a, b Spec) int {
		if a.Order != b.Order {
			return cmp.Compare(a.Order, b.Order)
		}
		return cmp.Compare(a.Name, b.Name)
	})
	return out
}

// Names returns the registered names in Specs order.
func Names() []string {
	specs := Specs()
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// names is the lock-held helper behind error messages.
func names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}
