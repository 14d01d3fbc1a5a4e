package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded by
// the benchmark around that call. Spans of one op share Op; Parent
// is the index of the enclosing span (-1 for an op's root).
type span struct {
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Parent int                `json:"parent"`
	Op     int                `json:"op"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced mode: every method returns at once.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
}

// count attaches a count measured at span id's boundary.
func (t *tracer) count(id int, key string, v float64) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.spans[id].Counts == nil {
		t.spans[id].Counts = make(map[string]float64)
	}
	t.spans[id].Counts[key] = v
}

// rename relabels span id once its outcome is known.
func (t *tracer) rename(id int, name string) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].Name = name
}

// opTrace scopes a tracer to one op: spans it opens are children of
// parent and carry the op's id.
type opTrace struct {
	tr     *tracer
	parent int
	op     int
}

func (o opTrace) on() bool                            { return o.tr != nil }
func (o opTrace) begin(name string) int               { return o.tr.begin(name, o.parent, o.op) }
func (o opTrace) end(id int)                          { o.tr.end(id) }
func (o opTrace) count(id int, key string, v float64) { o.tr.count(id, key, v) }

// selfNs returns each span's duration minus the time its direct
// children cover. Children of one span run sequentially on one
// goroutine, so their durations do not overlap.
func (t *tracer) selfNs() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// each applies f to every span named name and its self time in ns,
// keeping the values f accepts.
func (t *tracer) each(name string, f func(s span, selfNs float64) (float64, bool)) []float64 {
	self := t.selfNs()
	var out []float64
	for i, s := range t.spans {
		if s.Name != name {
			continue
		}
		if v, ok := f(s, float64(self[i])); ok {
			out = append(out, v)
		}
	}
	return out
}

// write stores the spans as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
