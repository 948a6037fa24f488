package main

import "runtime/metrics"

// metricDef is one reported metric: the names and units BENCHMARK.json
// lists, in the same order.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run (--trace 0), each the
// median over the run's fresh processes.
var endToEnd = []metricDef{
	{"wall_s", "s"},      // first simulation call to last result
	{"setup_s", "s"},     // process start to first simulation call
	{"max_rss_mb", "MB"}, // peak resident memory of the process
}

// perLayer are the metrics of a traced run (--trace 1). Spans are
// recorded around the calls into each layer from this program; counts
// that a layer does not expose as calls are read from its reports.
var perLayer = []metricDef{
	{"workload.gen_s", "s"},
	{"workload.requests", "count"},

	{"perfmodel.lookups", "count"},
	{"perfmodel.misses", "count"},
	{"perfmodel.hit_ratio", "ratio"},
	{"perfmodel.miss_s", "s"},

	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"go.gc_cpu_s", "s"},

	{"backend.systems", "count"},
	{"backend.step_calls", "count"},
	{"backend.step_s", "s"},
	{"backend.prefill_calls", "count"},
	{"backend.s", "s"},

	{"engine.iterations", "count"},
	{"engine.preemptions", "count"},
	{"engine.grows_per_iteration", "ratio"},

	{"memory.admit_calls", "count"},
	{"memory.grow_calls", "count"},
	{"memory.grow_failed", "count"},
	{"memory.grow_budget_calls", "count"},
	{"memory.release_calls", "count"},
	{"memory.s", "s"},
	{"memory.grow_fail_ratio", "ratio"},
	{"memory.reserved_over_live", "ratio"},

	{"serve.run_s", "s"},
	{"serve.self_s", "s"},
	{"serve.handoffs", "count"},
	{"serve.migrations", "count"},
	{"serve.steals", "count"},
	{"serve.held", "count"},
	{"serve.scale_ups", "count"},
	{"serve.drains", "count"},
	{"serve.crashes", "count"},
	{"serve.retries", "count"},

	{"cluster.sim_tok_per_s", "tok/s"},
	{"cluster.run_calls", "count"},
	{"cluster.run_s", "s"},
	{"cluster.self_s", "s"},

	{"trace.spans", "count"},
	{"trace.wall_s", "s"},
	{"trace.remainder_s", "s"},
	{"trace.overhead", "ratio"},
}

// goStats is the Go runtime's view of one pass: bytes allocated, GC
// cycles run and CPU seconds the collector spent.
type goStats struct {
	AllocBytes uint64  `json:"alloc_bytes"`
	GCCycles   uint64  `json:"gc_cycles"`
	GCCPU      float64 `json:"gc_cpu_s"`
}

var goSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readGoStats() goStats {
	s := make([]metrics.Sample, len(goSamples))
	copy(s, goSamples)
	metrics.Read(s)
	return goStats{AllocBytes: s[0].Value.Uint64(), GCCycles: s[1].Value.Uint64(), GCCPU: s[2].Value.Float64()}
}

// value returns the go.* per-layer metric of that name.
func (a goStats) value(name string) float64 {
	switch name {
	case "go.alloc_mb":
		return float64(a.AllocBytes) / (1 << 20)
	case "go.gc_cycles":
		return float64(a.GCCycles)
	case "go.gc_cpu_s":
		return a.GCCPU
	}
	return 0
}

func (a goStats) minus(b goStats) goStats {
	return goStats{AllocBytes: a.AllocBytes - b.AllocBytes, GCCycles: a.GCCycles - b.GCCycles, GCCPU: a.GCCPU - b.GCCPU}
}
