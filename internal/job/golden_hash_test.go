package job_test

import (
	"context"
	"testing"

	"fnr/internal/job"
)

// Golden spec identities. All but the last were captured BEFORE the
// scenario fields were added to job.Spec: a spec without scenario
// fields must canonical-JSON and hash byte-identically to the
// pre-scenario encoder, or every daemon cache key and dedup table
// built before the refactor silently invalidates. The scenario block
// is appended to the struct with omitempty for exactly this reason.
// The last case is the k=3 delayed-wakeup team spec CI's server-smoke
// job submits to a live fnrd, whose served spec_hash must equal this
// literal; its workload key is the reference spec's.
var goldenSpecs = []struct {
	name      string
	spec      job.Spec
	canonical string
	hash      string
	wkey      string
}{
	{
		name: "reference",
		spec: job.Spec{
			Algorithm: "whiteboard",
			Workload:  &job.Workload{N: 1024, D: 181, Seed: 7},
			Trials:    200,
			Seed:      7,
		},
		canonical: `{"algorithm":"whiteboard","workload":{"kind":"planted","n":1024,"d":181,"seed":7},"trials":200,"seed":7}`,
		hash:      "ba103599e726217cf177ff117640f2efc3943cca64812c731234a347fce0fda4",
		wkey:      "efc2a522f4caa1278292b4bfcd1b598f11cadb2183cbed744c9ccb61a0cd9cea",
	},
	{
		name: "defaultkind",
		spec: job.Spec{
			Algorithm: "sweep",
			Workload:  &job.Workload{N: 64, D: 8, Seed: 3},
			Trials:    10,
			Seed:      4,
			Params:    "practical",
		},
		canonical: `{"algorithm":"sweep","workload":{"kind":"planted","n":64,"d":8,"seed":3},"trials":10,"seed":4}`,
		hash:      "f019264bff91e7b2f29f7325639a18174474c3662bb39596b0b3fbda27734cb0",
		wkey:      "8031628c497828440991791eb7400e10af339279dddc2b02b39f3fa38986a329",
	},
	{
		name: "starts-shard-faults",
		spec: job.Spec{
			Algorithm:  "walkpair",
			Workload:   &job.Workload{N: 128, D: 8, Seed: 11},
			StartA:     intp(3),
			StartB:     intp(17),
			Trials:     500,
			Seed:       11,
			ShardIndex: 1,
			ShardCount: 3,
			Faults:     "panic:p=0.01,stall:p=0.02,builderr:p=0.005",
			FaultSeed:  9,
			Checkpoint: "x.ckpt",
		},
		canonical: `{"algorithm":"walkpair","workload":{"kind":"planted","n":128,"d":8,"seed":11},"start_a":3,"start_b":17,"trials":500,"seed":11,"shard_index":1,"shard_count":3,"faults":"panic:p=0.01,stall:p=0.02,builderr:p=0.005","fault_seed":9,"checkpoint":"x.ckpt"}`,
		hash:      "7f7784eb1ae791918d6280c2e91ff9daf3d04724042e7523254f3a66b4826ea8",
		wkey:      "778d4a9c83f40a5fc919b8c14ed6aa790f0acb8470a0f742b3350df0580e9d2d",
	},
	{
		name: "graphref-paper",
		spec: job.Spec{
			Algorithm: "noboard",
			GraphRef:  "abc123",
			Trials:    7,
			Seed:      1,
			Delta:     32,
			MaxRounds: 5000,
			Params:    "paper",
		},
		canonical: `{"algorithm":"noboard","graph_ref":"abc123","trials":7,"seed":1,"delta":32,"max_rounds":5000,"params":"paper"}`,
		hash:      "f0c2d0d31d17c92125b8463ff22fcc4b160d9339d4b9c74b38aeb434a40700ed",
		wkey:      "abc123",
	},
	{
		name: "harness-stream",
		spec: job.Spec{
			Algorithm: "dfs",
			Workload:  &job.Workload{Kind: "ring", N: 33, Seed: 2, Stream: 11400714819323198485},
			Trials:    12,
			Seed:      6,
		},
		canonical: `{"algorithm":"dfs","workload":{"kind":"ring","n":33,"seed":2,"stream":11400714819323198485},"trials":12,"seed":6}`,
		hash:      "7d11304caea37488242f3308dc7c6ca0d221577e5177b83d54b8816d59eac3fc",
		wkey:      "b44a7e689aaefbc4449795c845c26912aa76a645b158118870eef08dc66254cb",
	},
	{
		name: "team-scenario",
		spec: job.Spec{
			Algorithm:  "walkpair",
			Workload:   &job.Workload{N: 1024, D: 181, Seed: 7},
			Trials:     64,
			Seed:       7,
			Agents:     3,
			WakeDelays: []int64{0, 0, 256},
			Meet:       "firstpair",
		},
		canonical: `{"algorithm":"walkpair","workload":{"kind":"planted","n":1024,"d":181,"seed":7},"trials":64,"seed":7,"agents":3,"wake_delays":[0,0,256],"meet":"firstpair"}`,
		hash:      "706be97f583039a7309b30312ebbae76cff065935f961e4fb26fda9a6a12cd30",
		wkey:      "efc2a522f4caa1278292b4bfcd1b598f11cadb2183cbed744c9ccb61a0cd9cea",
	},
}

func intp(v int) *int { return &v }

func TestGoldenSpecHashesPreScenario(t *testing.T) {
	for _, tc := range goldenSpecs {
		data, err := tc.spec.CanonicalJSON()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if string(data) != tc.canonical {
			t.Errorf("%s: canonical JSON drifted:\ngot:  %s\nwant: %s", tc.name, data, tc.canonical)
		}
		h, err := tc.spec.Hash()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if h != tc.hash {
			t.Errorf("%s: Hash = %s, want %s", tc.name, h, tc.hash)
		}
		if k := tc.spec.WorkloadKey(); k != tc.wkey {
			t.Errorf("%s: WorkloadKey = %s, want %s", tc.name, k, tc.wkey)
		}
	}
}

// The scenario normalization boundary: a bare agents=2 block is
// observably the legacy setting and must hash like one; anything more
// (delays, extra agents, a predicate) is new identity.
func TestScenarioSpecHashing(t *testing.T) {
	base := job.Spec{
		Algorithm: "walkpair",
		Workload:  &job.Workload{N: 64, D: 8, Seed: 3},
		Trials:    10,
		Seed:      4,
	}
	baseHash, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}

	bare := base
	bare.Agents = 2
	if h, _ := bare.Hash(); h != baseHash {
		t.Errorf("bare agents=2 spec hash %s differs from legacy %s", h, baseHash)
	}
	zeroDelays := base
	zeroDelays.WakeDelays = []int64{0, 0}
	if h, _ := zeroDelays.Hash(); h != baseHash {
		t.Errorf("all-zero wake_delays spec hash %s differs from legacy %s", h, baseHash)
	}
	meetAll := base
	meetAll.Meet = "all"
	if h, _ := meetAll.Hash(); h != baseHash {
		t.Errorf(`meet="all" spec hash %s differs from legacy %s`, h, baseHash)
	}

	delayed := base
	delayed.WakeDelays = []int64{0, 16}
	if h, _ := delayed.Hash(); h == baseHash {
		t.Error("a real wake delay did not change the spec hash")
	}
	k3 := base
	k3.Agents = 3
	if h, _ := k3.Hash(); h == baseHash {
		t.Error("agents=3 did not change the spec hash")
	}
	data, err := k3.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	want := `{"algorithm":"walkpair","workload":{"kind":"planted","n":64,"d":8,"seed":3},"trials":10,"seed":4,"agents":3}`
	if string(data) != want {
		t.Errorf("scenario fields must append after the legacy fields:\ngot:  %s\nwant: %s", data, want)
	}
}

// Scenario specs validate and run end to end: derived extra starts
// are deterministic (same spec twice → byte-identical aggregates), a
// bad spec fails before any work, and a pairwise algorithm rejects
// k>2 at validation time.
func TestScenarioSpecRuns(t *testing.T) {
	spec := job.Spec{
		Algorithm:  "walkpair",
		Workload:   &job.Workload{N: 64, D: 8, Seed: 3},
		Trials:     8,
		Seed:       4,
		MaxRounds:  1 << 14,
		Agents:     3,
		WakeDelays: []int64{0, 16, 0},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	run := func() *string {
		res, err := job.Run(context.Background(), spec, job.ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		s := renderAggregate(t, res)
		return &s
	}
	first, second := run(), run()
	if *first != *second {
		t.Errorf("derived-start scenario is not reproducible:\n%s\nvs\n%s", *first, *second)
	}

	bad := spec
	bad.WakeDelays = []int64{5}
	if err := bad.Validate(); err == nil {
		t.Error("mismatched wake_delays length validated")
	}
	pairwise := spec
	pairwise.Algorithm = "whiteboard"
	pairwise.WakeDelays = nil
	if err := pairwise.Validate(); err == nil {
		t.Error("whiteboard at k=3 validated; want a two-agent-strategy rejection")
	}
}
