package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"

	"fnr/internal/engine"
	"fnr/internal/graph"
	"fnr/internal/job"
)

// inProcess is the engine option every in-process workload uses: one
// worker, so a run loads one of the host's cores.
var inProcess = job.ExecOptions{Workers: 1}

// inProc holds what the three in-process workloads share: one client,
// no daemon to check or stop, and this process's memory.
type inProc struct{}

func (inProc) clients() int                           { return 1 }
func (inProc) check(context.Context, *window) []error { return nil }
func (inProc) peakRSSMB() (float64, error)            { return peakRSSMB("self") }
func (inProc) close()                                 {}

// runSpec runs spec on the materialized workload in-process — the CLI
// path: job.RunBuilt, Result.Aggregate, json.Marshal — and returns the
// aggregate JSON. Trial errors fail the op.
func runSpec(ctx context.Context, spec job.Spec, m job.Materialized, o opTrace) ([]byte, *job.Result, error) {
	var ms0 runtime.MemStats
	if o.on() {
		runtime.ReadMemStats(&ms0)
	}
	run := o.begin("job.RunBuilt:" + spec.Algorithm)
	res, err := job.RunBuilt(ctx, spec, m, inProcess)
	o.end(run)
	if err != nil {
		return nil, nil, err
	}
	if o.on() {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		o.count(run, "alloc_bytes", float64(ms1.TotalAlloc-ms0.TotalAlloc))
	}
	s := o.begin("Result.Aggregate")
	agg := res.Aggregate()
	o.end(s)
	if o.on() {
		o.count(run, "trials", float64(agg.Trials))
		o.count(run, "rounds", float64(agg.Met)*agg.Rounds.Mean)
	}
	s = o.begin("json.Marshal")
	data, err := json.Marshal(agg)
	o.end(s)
	if err != nil {
		return nil, nil, err
	}
	if agg.Errors > 0 || agg.Trials != spec.Trials {
		return nil, nil, fmt.Errorf("%s batch: %d of %d trials erred: %v", spec.Algorithm, agg.Errors, agg.Trials, agg.FirstErrors)
	}
	return data, res, nil
}

// paperBatch runs the paper's two algorithms on resident planted
// graphs in Theorem 1's regime (δ > √n): each op is a whiteboard batch
// then a noboard batch with the same seed, on one of four graphs.
type paperBatch struct {
	inProc
	seed uint64
	ws   []job.Workload
	ms   []job.Materialized
}

const (
	paperGraphs = 4
	paperTrials = 128
)

func (p *paperBatch) setup(context.Context) error {
	p.ws, p.ms = nil, nil
	for j := range paperGraphs {
		w := job.Workload{Kind: "planted", N: 4096, D: 128, Seed: derive(p.seed, "paper-graph", j)}
		m, err := w.Materialize()
		if err != nil {
			return err
		}
		p.ws, p.ms = append(p.ws, w), append(p.ms, m)
	}
	return nil
}

func (p *paperBatch) op(ctx context.Context, i int, o opTrace) opResult {
	seed := derive(p.seed, "paper-spec", i)
	var out []byte
	for _, alg := range []string{"whiteboard", "noboard"} {
		spec := job.Spec{Algorithm: alg, Workload: &p.ws[i%paperGraphs], Trials: paperTrials, Seed: seed}
		data, _, err := runSpec(ctx, spec, p.ms[i%paperGraphs], o)
		if err != nil {
			return opResult{err: err}
		}
		out = append(out, data...)
	}
	return opResult{out: out}
}

func (p *paperBatch) reference(ctx context.Context, i int) ([]byte, error) {
	r := p.op(ctx, i, opTrace{})
	return r.out, r.err
}

func (p *paperBatch) warmups() int   { return 4 }
func (p *paperBatch) digestOps() int { return 16 }
func (p *paperBatch) rechecks() int  { return 16 }

// trialFlood runs one large sweep batch per op on the mega preset's
// small graph: trials are short, so the per-trial engine cost
// dominates the round tick.
type trialFlood struct {
	inProc
	seed           uint64
	w              job.Workload
	m              job.Materialized
	startA, startB int
	ckpt           bytes.Buffer
}

const floodTrials = 50_000

func (f *trialFlood) setup(context.Context) error {
	f.w = job.Workload{Kind: "planted", N: 64, D: 8, Seed: derive(f.seed, "flood-graph", 0)}
	var err error
	if f.m, err = f.w.Materialize(); err != nil {
		return err
	}
	// The sweeping agent B visits its neighbors in port order and
	// meets the staying agent A on round 2p+1, p being A's port at B.
	// Placing A behind port 6 makes every trial 13 rounds long on
	// every seed, so the op's work does not depend on the graph drawn.
	f.startB = int(f.m.StartA)
	f.startA = int(f.m.Graph.Adj(f.m.StartA)[6])
	return nil
}

func (f *trialFlood) op(ctx context.Context, i int, o opTrace) opResult {
	spec := job.Spec{
		Algorithm: "sweep", Workload: &f.w, StartA: &f.startA, StartB: &f.startB,
		Trials: floodTrials, Seed: derive(f.seed, "flood-spec", i),
	}
	data, res, err := runSpec(ctx, spec, f.m, o)
	if err != nil {
		return opResult{err: err}
	}
	if o.on() {
		// No workload checkpoints (journals fsync); the traced run
		// encodes the reducer into memory as a baseline only.
		f.ckpt.Reset()
		s := o.begin("engine.WriteCheckpoint")
		err := engine.WriteCheckpoint(&f.ckpt, res.Batch, res.Reducer)
		o.end(s)
		o.count(s, "bytes", float64(f.ckpt.Len()))
		if err != nil {
			return opResult{err: err}
		}
	}
	return opResult{out: data}
}

func (f *trialFlood) reference(ctx context.Context, i int) ([]byte, error) {
	r := f.op(ctx, i, opTrace{})
	return r.out, r.err
}

func (f *trialFlood) warmups() int   { return 4 }
func (f *trialFlood) digestOps() int { return 4 }
func (f *trialFlood) rechecks() int  { return 6 }

// graphBuild is the graphgen → load path with no engine: materialize
// a planted workload, encode it as binary v3 into memory, read it
// back, and require the round trip to be exact.
type graphBuild struct {
	inProc
	seed uint64
	buf  bytes.Buffer
}

func (g *graphBuild) setup(context.Context) error { return nil }

func (g *graphBuild) op(_ context.Context, i int, o opTrace) opResult {
	w := job.Workload{Kind: "planted", N: 2048, D: 64, Seed: derive(g.seed, "graph", i)}
	s := o.begin("job.Workload.Materialize")
	m, err := w.Materialize()
	o.end(s)
	if err != nil {
		return opResult{err: err}
	}
	arcs := float64(2 * m.Graph.M())
	o.count(s, "arcs", arcs)
	o.count(s, "footprint_bytes", float64(m.Graph.FootprintBytes()))

	g.buf.Reset()
	s = o.begin("graph.WriteBinaryV3")
	_, err = m.Graph.WriteBinaryV3(&g.buf)
	o.end(s)
	if err != nil {
		return opResult{err: err}
	}
	o.count(s, "arcs", arcs)
	o.count(s, "bytes", float64(g.buf.Len()))

	var ms0 runtime.MemStats
	if o.on() {
		runtime.ReadMemStats(&ms0)
	}
	s = o.begin("graph.Read")
	h, err := graph.Read(bytes.NewReader(g.buf.Bytes()))
	o.end(s)
	if err != nil {
		return opResult{err: err}
	}
	if o.on() {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		o.count(s, "arcs", arcs)
		o.count(s, "alloc_bytes", float64(ms1.TotalAlloc-ms0.TotalAlloc))
		// Read validates what it decodes; timing Validate again on
		// the decoded graph gives that share of Read.
		s = o.begin("graph.Validate")
		err := h.Validate()
		o.end(s)
		o.count(s, "arcs", arcs)
		if err != nil {
			return opResult{err: err}
		}
	}

	s = o.begin("graph.Equal")
	eq := h.Equal(m.Graph)
	o.end(s)
	if !eq {
		return opResult{err: errors.New("graph-build: decoded graph differs from the generated one")}
	}
	sum := sha256.Sum256(g.buf.Bytes())
	out := binary.LittleEndian.AppendUint32(sum[:], uint32(m.StartA))
	out = binary.LittleEndian.AppendUint32(out, uint32(m.StartB))
	return opResult{out: out}
}

func (g *graphBuild) reference(ctx context.Context, i int) ([]byte, error) {
	r := g.op(ctx, i, opTrace{})
	return r.out, r.err
}

func (g *graphBuild) warmups() int   { return 4 }
func (g *graphBuild) digestOps() int { return 8 }
func (g *graphBuild) rechecks() int  { return 8 }
