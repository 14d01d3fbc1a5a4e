package job_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"fnr/internal/job"
)

// decodeSpec decodes a spec the way fnrd decodes a submission body.
func decodeSpec(data []byte) (job.Spec, error) {
	var s job.Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&s)
	return s, err
}

// FuzzSpec holds the spec identity rules on any JSON the server would
// accept: Validate never panics, Normalize is idempotent, and Hash
// survives a CanonicalJSON → decode round trip (the canonical form is
// itself a spec that hashes the same).
func FuzzSpec(f *testing.F) {
	for _, tc := range goldenSpecs {
		f.Add([]byte(tc.canonical))
		raw, err := json.Marshal(tc.spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"algorithm":"walkpair","workload":{"n":64,"d":8,"seed":3},"trials":10,"seed":4,"agents":2,"wake_delays":[0,0],"meet":"all","params":"practical","shard_count":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decodeSpec(data)
		if err != nil {
			return
		}
		_ = s.Validate()
		canon, err := s.CanonicalJSON()
		if err != nil {
			t.Fatalf("CanonicalJSON of a decoded spec: %v", err)
		}
		again, err := s.Normalize().CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canon, again) {
			t.Fatalf("Normalize is not idempotent:\nonce:  %s\ntwice: %s", canon, again)
		}
		h, err := s.Hash()
		if err != nil {
			t.Fatal(err)
		}
		s2, err := decodeSpec(canon)
		if err != nil {
			t.Fatalf("canonical JSON %s does not decode: %v", canon, err)
		}
		if h2, err := s2.Hash(); err != nil || h2 != h {
			t.Fatalf("Hash changed across the canonical round trip: %s → %s (%v)\n%s", h, h2, err, canon)
		}
	})
}
