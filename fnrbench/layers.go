package main

import "time"

// layerSource is a traced window: its spans, its ops, and the
// workload that ran it.
type layerSource struct {
	tr  *tracer
	win *window
	w   workload
}

// layerDef is a per-layer metric: the workload whose traced window
// supplies it and how it is derived. design.json records which
// end-to-end metric each should move.
type layerDef struct {
	metricDef
	from  string
	value func(layerSource) float64
}

// selfPer is the median over spans named name of self time divided by
// the span's count key.
func selfPer(name, key string) func(layerSource) float64 {
	return func(s layerSource) float64 {
		return median(s.tr.each(name, func(sp span, self float64) (float64, bool) {
			return self / sp.Counts[key], sp.Counts[key] > 0
		}))
	}
}

// countPer is the median over spans named name of count num divided by
// count den.
func countPer(name, num, den string) func(layerSource) float64 {
	return func(s layerSource) float64 {
		return median(s.tr.each(name, func(sp span, _ float64) (float64, bool) {
			return sp.Counts[num] / sp.Counts[den], sp.Counts[den] > 0
		}))
	}
}

// countOf is the median of count key over spans named name.
func countOf(name, key string) func(layerSource) float64 {
	return func(s layerSource) float64 {
		return median(s.tr.each(name, func(sp span, _ float64) (float64, bool) { return sp.Counts[key], true }))
	}
}

// selfUs is the median self time of spans named name, in µs.
func selfUs(name string) func(layerSource) float64 {
	return func(s layerSource) float64 {
		return median(s.tr.each(name, func(_ span, self float64) (float64, bool) { return self / 1e3, true }))
	}
}

// warmMedian is the median of f over the window's warm served jobs.
func warmMedian(f func(opResult) float64) func(layerSource) float64 {
	return func(s layerSource) float64 {
		var xs []float64
		for _, r := range s.win.ops {
			if r.err == nil && r.class == "warm" {
				xs = append(xs, f(r))
			}
		}
		return median(xs)
	}
}

// serverDelta is the change of a daemon counter over the window.
func serverDelta(name string) func(layerSource) float64 {
	return func(s layerSource) float64 { return s.win.server[name] - s.win.serverBefore[name] }
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

var perLayer = []layerDef{
	{metricDef{"sim.ns_per_round.whiteboard", "ns"}, "paper-batch", selfPer("job.RunBuilt:whiteboard", "rounds")},
	{metricDef{"sim.ns_per_round.noboard", "ns"}, "paper-batch", selfPer("job.RunBuilt:noboard", "rounds")},
	{metricDef{"sim.ns_per_round.sweep", "ns"}, "trial-flood", selfPer("job.RunBuilt:sweep", "rounds")},
	{metricDef{"engine.ns_per_trial", "ns"}, "trial-flood", selfPer("job.RunBuilt:sweep", "trials")},
	{metricDef{"engine.alloc_bytes_per_trial", "B"}, "trial-flood", countPer("job.RunBuilt:sweep", "alloc_bytes", "trials")},
	{metricDef{"engine.alloc_bytes_per_trial.paper", "B"}, "paper-batch", countPer("job.RunBuilt:whiteboard", "alloc_bytes", "trials")},
	{metricDef{"engine.aggregate_us", "us"}, "paper-batch", selfUs("Result.Aggregate")},
	{metricDef{"job.marshal_us", "us"}, "paper-batch", selfUs("json.Marshal")},
	{metricDef{"engine.checkpoint_encode_us", "us"}, "trial-flood", selfUs("engine.WriteCheckpoint")},
	{metricDef{"engine.checkpoint_bytes", "B"}, "trial-flood", countOf("engine.WriteCheckpoint", "bytes")},
	{metricDef{"graph.gen_ns_per_arc", "ns"}, "graph-build", selfPer("job.Workload.Materialize", "arcs")},
	{metricDef{"graph.encode_v3_ns_per_arc", "ns"}, "graph-build", selfPer("graph.WriteBinaryV3", "arcs")},
	{metricDef{"graph.decode_v3_ns_per_arc", "ns"}, "graph-build", selfPer("graph.Read", "arcs")},
	{metricDef{"graph.validate_ns_per_arc", "ns"}, "graph-build", selfPer("graph.Validate", "arcs")},
	{metricDef{"graph.v3_bytes_per_arc", "B"}, "graph-build", countPer("graph.WriteBinaryV3", "bytes", "arcs")},
	{metricDef{"graph.footprint_bytes_per_arc", "B"}, "graph-build", countPer("job.Workload.Materialize", "footprint_bytes", "arcs")},
	{metricDef{"graph.decode_alloc_bytes_per_arc", "B"}, "graph-build", countPer("graph.Read", "alloc_bytes", "arcs")},
	{metricDef{"server.submit_us", "us"}, "fnrd-mix", selfUs("http.submit")},
	{metricDef{"server.fetch_us", "us"}, "fnrd-mix", selfUs("http.fetch")},
	{metricDef{"server.polls_per_job", "count"}, "fnrd-mix", warmMedian(func(r opResult) float64 { return float64(r.polls) })},
	{metricDef{"server.queue_wait_ms", "ms"}, "fnrd-mix", warmMedian(func(r opResult) float64 { return ms(r.queueWait) })},
	{metricDef{"server.overhead_ms", "ms"}, "fnrd-mix", func(s layerSource) float64 {
		return warmMedian(func(r opResult) float64 { return ms(r.lat) })(s) - median(s.w.(*fnrdMix).inProcessMs)
	}},
	{metricDef{"server.cold_p50_ms", "ms"}, "fnrd-mix", func(s layerSource) float64 {
		return median(latenciesMs(s.win.ops, func(r opResult) bool { return r.class == "cold" }))
	}},
	{metricDef{"server.rejected", "count"}, "fnrd-mix", serverDelta("fnrd_batches_rejected_total")},
	{metricDef{"graphcache.hit_ratio", "ratio"}, "fnrd-mix", func(s layerSource) float64 {
		h, m := serverDelta("fnrd_graphcache_hits_total")(s), serverDelta("fnrd_graphcache_misses_total")(s)
		return h / (h + m)
	}},
	{metricDef{"graphcache.builds", "count"}, "fnrd-mix", serverDelta("fnrd_graphcache_builds_total")},
	{metricDef{"graphcache.evictions", "count"}, "fnrd-mix", serverDelta("fnrd_graphcache_evictions_total")},
}

// traceMetrics are reported by every traced run besides perLayer: the
// named workload's op median untraced and traced, and their gap.
var traceMetrics = []metricDef{
	{"trace.untraced_op_p50_ms", "ms"},
	{"trace.traced_op_p50_ms", "ms"},
	{"trace.overhead_pct", "%"},
}
