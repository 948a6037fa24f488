package main

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sort"
	"time"

	"pimphony/internal/cluster"
	"pimphony/internal/core"
	"pimphony/internal/model"
	"pimphony/internal/serve"
	"pimphony/internal/timing"
	"pimphony/internal/workload"
)

// op is one simulation call: a ladder point (core.NewSystem plus
// System.Run) or one serve.Run. run returns the call's report, a
// *cluster.Report or a *serve.Report.
type op struct {
	name  string
	kind  spanKind
	run   func(ctx context.Context) (any, error)
	check func(rep any) error
}

// plan is one workload instance: everything set-up builds before the
// first simulation call.
type plan struct {
	ops []op
	// requests is the number of requests the workload generated, and
	// inputs a digest of them.
	requests int
	inputs   string
	// genTime is the time spent inside internal/workload generating them.
	genTime time.Duration
	// devs are the PIM devices whose shared perfmodel services the ops
	// price against.
	devs []timing.Device
	// finish checks the invariants that span several ops. It returns the
	// workload's simulated headline values and informational lines, and
	// the indexes of ops whose reports breach an invariant.
	finish func(reps []any) (headline []headline, notes []string, breached []int)
}

// headline is one simulated-time value printed beside the digest.
type headline struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	// NA marks a value the workload has no definition for.
	NA bool `json:"na,omitempty"`
}

// instance sizes a workload. The benchmark runs full; the tests run
// tiny instances of the same shape.
type instance int

const (
	full instance = iota
	tiny
)

// workloadDef is one named workload. Why each exists is recorded in
// BENCHMARK.json and README.md.
type workloadDef struct {
	name string
	plan func(seed int64, size instance, traced bool) (*plan, error)
}

var workloads = []workloadDef{
	{"ladder-cold", ladderPlan},
	{"fleet-day", fleetPlan},
	{"kv-pressure", kvPlan},
}

func lookupWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// subSeed derives an independent generator seed for stream i of a run,
// so the request pools, arrival times and fault chains of one seed do
// not share a random stream.
func subSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z ^= z >> 31
	return int64(z >> 1)
}

// withBackend selects the forwarding backend for traced runs. Every
// preset names its backend, so the name is never the registry's empty
// default.
func withBackend(cfg cluster.Config, traced bool) cluster.Config {
	if traced {
		cfg.Backend = tracedPrefix + cfg.Backend
	}
	return cfg
}

// ---------------------------------------------------------------------------
// ladder-cold
// ---------------------------------------------------------------------------

// ladderPreset is one system organisation of the Fig. 13/14 ladder and
// the paper's largest reported PIMphony speedup on it.
type ladderPreset struct {
	name  string
	make  func(model.Config, core.Technique) core.Config
	paper float64
}

var ladderPresets = []ladderPreset{
	{"cent", core.CENT, 11.3},
	{"neupims", core.NeuPIMs, 8.4},
}

// ladderTraces are each Table I model's evaluation suites (Sec.
// VIII-A): LongBench QMSum and Musique for the 32K models, LV-Eval
// multifieldqa and Loogle-SD for the 128K GQA ones.
func ladderTraces(m model.Config) []workload.Trace {
	if m.IsGQA() {
		return []workload.Trace{workload.MultiFieldQA(), workload.LoogleSD()}
	}
	return []workload.Trace{workload.QMSum(), workload.Musique()}
}

// ladderPlan is the batch baseline -> +TCP -> +DCS -> +DPA ladder for
// CENT and NeuPIMs over the four Table I models on both of each model's
// suites, every (system, model, suite) on its own stratified 64-request
// pool. Every stage builds its System and runs one decode window, as
// core.IncrementalStudyCtx does per point at one worker.
func ladderPlan(seed int64, size instance, traced bool) (*plan, error) {
	models, poolSize := model.All(), 64
	if size == tiny {
		models, poolSize = []model.Config{model.LLM7B32K()}, 16
	}
	p := &plan{}
	in := newDigest()
	type point struct {
		preset, model int
		stage         string
	}
	var points []point
	for mi, m := range models {
		for pi, pr := range ladderPresets {
			for ti, tr := range ladderTraces(m) {
				// Each system and suite draws its own pool, as Figs. 13
				// and 14 are separate studies.
				t0 := time.Now()
				reqs := stratifiedPool(tr, subSeed(seed, (mi*len(ladderPresets)+pi)*2+ti), poolSize)
				p.genTime += time.Since(t0)
				p.requests += len(reqs)
				in.value(reflect.ValueOf(reqs))
				for _, st := range core.Stages() {
					cfg := withBackend(pr.make(m, st.Tech), traced)
					if err := cfg.Validate(); err != nil {
						return nil, fmt.Errorf("ladder %s/%s: %w", pr.name, m.Name, err)
					}
					p.devs = appendDev(p.devs, cfg.Dev)
					points = append(points, point{pi, mi, st.Stage})
					p.ops = append(p.ops, op{
						name: fmt.Sprintf("%s/%s/%s/%s", pr.name, m.Name, tr.Name, st.Stage),
						kind: kClusterRun,
						run: func(ctx context.Context) (any, error) {
							sys, err := core.NewSystem(cfg)
							if err != nil {
								return nil, err
							}
							return sys.ServeCtx(ctx, reqs)
						},
						check: func(rep any) error { return checkBatch(rep.(*cluster.Report), cfg.DecodeWindow) },
					})
				}
			}
		}
	}
	p.inputs = in.sum()
	p.finish = func(reps []any) ([]headline, []string, []int) {
		var dpaSum float64
		var dpaN int
		best := make([]float64, len(ladderPresets))
		bestAt := make([]string, len(ladderPresets))
		var base float64
		for i, r := range reps {
			rep, ok := r.(*cluster.Report)
			if !ok {
				continue
			}
			pt := points[i]
			switch pt.stage {
			case "baseline":
				base = rep.Throughput
			case "+DPA":
				dpaSum += rep.Throughput
				dpaN++
				if base > 0 && rep.Throughput/base > best[pt.preset] {
					best[pt.preset] = rep.Throughput / base
					bestAt[pt.preset] = models[pt.model].Name
				}
			}
		}
		var goodput float64
		if dpaN > 0 {
			goodput = dpaSum / float64(dpaN)
		}
		heads := []headline{
			{Name: "model.goodput_tok_s", Value: goodput},
			{Name: "model.ttft_p99_s", NA: true},
			{Name: "model.preemptions", Value: 0},
		}
		var notes []string
		for i, pr := range ladderPresets {
			notes = append(notes, fmt.Sprintf("fidelity %s: largest modelled PIMphony/baseline speedup %.1fx (%s) vs paper up to %.1fx [unvalidated]",
				pr.name, best[i], bestAt[i], pr.paper))
		}
		return heads, notes, nil
	}
	return p, nil
}

// inputDigest digests generated inputs, for the tests' seed checks.
func inputDigest(v any) string {
	d := newDigest()
	d.value(reflect.ValueOf(v))
	return d.sum()
}

// stratifiedPool draws a pool of n requests from a trace so that every
// prefix of the pool spans the trace's context distribution. The
// generator samples 16n candidates from the seed; the pool takes them
// in context order at the quantiles of a golden-ratio sequence whose
// phase also comes from the seed. A batch decode admits the pool's
// first requests until the KV pool is full, and the cold pricing work
// grows with their contexts, so an i.i.d. pool would let one seed's
// draw of a few long prompts swing the work by tens of percent; the
// stratified prefix keeps the same shape of work on every seed while
// the contexts themselves still change with it.
func stratifiedPool(tr workload.Trace, seed int64, n int) []workload.Request {
	cand := workload.NewGenerator(tr, seed).Batch(16 * n)
	sort.Slice(cand, func(i, j int) bool { return cand[i].Context < cand[j].Context })
	phase := float64(uint64(subSeed(seed, -1))>>11) / (1 << 52)
	pool := make([]workload.Request, n)
	for i := range pool {
		_, u := math.Modf(phase + float64(i)*0.6180339887498949)
		r := cand[int(u*float64(len(cand)))]
		r.ID = i
		pool[i] = r
	}
	return pool
}

func appendDev(devs []timing.Device, d timing.Device) []timing.Device {
	for _, x := range devs {
		if x == d {
			return devs
		}
	}
	return append(devs, d)
}

// checkBatch holds for every batch decode window: the window ran to
// its end and every admitted request generated one token per step.
func checkBatch(rep *cluster.Report, window int) error {
	switch {
	case rep.Batch <= 0:
		return fmt.Errorf("empty batch")
	case rep.Steps != window:
		return fmt.Errorf("ran %d of %d decode steps", rep.Steps, window)
	case !(rep.TotalSeconds > 0) || !(rep.Throughput > 0):
		return fmt.Errorf("non-positive time %g or throughput %g", rep.TotalSeconds, rep.Throughput)
	}
	tokens := float64(rep.Batch * rep.Steps)
	if d := rep.Throughput*rep.TotalSeconds - tokens; d > 1e-6*tokens || d < -1e-6*tokens {
		return fmt.Errorf("throughput x time = %g tokens, want %g", rep.Throughput*rep.TotalSeconds, tokens)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Serving workloads
// ---------------------------------------------------------------------------

// checkServe holds for every serving run: each arrival completed or
// failed under its retry budget, and the generated tokens are exactly
// the decode lengths of the completed requests. Inputs are built so no
// request can reach the context window, so nothing is truncated.
// fixedDecode is the decode length every request shares, or 0 when
// lengths vary (then no request may fail).
func checkServe(rep *serve.Report, arr []workload.Arrival, fixedDecode int) error {
	completed := 0
	for _, st := range rep.PerReplica {
		completed += st.Requests
	}
	failed := 0
	if rep.Faults != nil {
		failed = rep.Faults.Failed
	}
	if rep.Requests != len(arr) || completed+failed != len(arr) {
		return fmt.Errorf("%d arrivals: report has %d requests, %d completed + %d failed",
			len(arr), rep.Requests, completed, failed)
	}
	want := 0
	if failed == 0 {
		for _, a := range arr {
			want += a.Req.Decode
		}
	} else if fixedDecode > 0 {
		want = completed * fixedDecode
	} else {
		return fmt.Errorf("%d requests failed with variable decode lengths", failed)
	}
	if rep.Tokens != want {
		return fmt.Errorf("generated %d tokens, completed requests decode %d", rep.Tokens, want)
	}
	return nil
}

// checkFits rejects inputs whose requests could reach the context
// window, where the engine truncates and checkServe's token count would
// not hold.
func checkFits(arr []workload.Arrival, m model.Config) error {
	for _, a := range arr {
		if a.Req.Context+a.Req.Decode >= m.ContextWindow {
			return fmt.Errorf("request %d: context %d + decode %d reaches the %d window",
				a.Req.ID, a.Req.Context, a.Req.Decode, m.ContextWindow)
		}
	}
	return nil
}

// fleetDecodeLen is every fleet-day request's generation length.
const fleetDecodeLen = 32

// fleetPlan is an SLO-autoscaled unified CENT+PIMphony fleet serving a
// diurnal day of heavy-tailed short-prompt requests: round-robin-fit
// placement, migration and stealing on, and a sparse crash plan.
func fleetPlan(seed int64, size instance, traced bool) (*plan, error) {
	replicas, n := 10000, 40000
	if size == tiny {
		replicas, n = 40, 160
	}
	m := model.LLM7B32K()
	p := &plan{}
	t0 := time.Now()
	gen, err := workload.HeavyTailed(256, 2048, 1.2, subSeed(seed, 0))
	if err != nil {
		return nil, err
	}
	gen.DecodeLen = fleetDecodeLen
	// 0.0005 req/s per replica: the megafleet study's constant
	// per-replica load; the two-hour day covers most of the trace.
	arr, err := workload.ArrivalsByFlag("diurnal:7200:0.9", gen, 0.0005*float64(replicas), 4, n, subSeed(seed, 1))
	if err != nil {
		return nil, err
	}
	p.genTime = time.Since(t0)
	p.requests = len(arr)
	p.inputs = inputDigest(arr)
	if err := checkFits(arr, m); err != nil {
		return nil, err
	}
	sys := withBackend(core.CENT(m, core.PIMphony()), traced)
	sys.KVBudgetBytes = 2 << 30
	p.devs = []timing.Device{sys.Dev}
	specs := []serve.ReplicaSpec{{
		System: sys, Count: replicas, Role: serve.RoleUnified,
		Min: max(1, replicas/20), WarmupSeconds: 2,
	}}
	faults := &serve.FaultPlan{
		Seed: uint64(subSeed(seed, 2)),
		Groups: []serve.FaultGroup{{
			Spec: -1, Mode: serve.FaultCrash, MTBFSeconds: 50 * 3600, MTTRSeconds: 30,
		}},
		MaxRetries:     3,
		BackoffSeconds: 0.25,
	}
	cfg := func() serve.Config {
		return serve.Config{
			Fleet:        specs,
			Interconnect: timing.DefaultInterconnect(),
			Placement:    serve.RoundRobinFit(),
			Migrate:      true,
			Steal:        true,
			Autoscaler:   serve.NewSLOScaler(),
			SLO:          serve.SLO{TTFT: 2.5, TBT: 0.025},
			Faults:       faults,
		}
	}
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	probe := cfg()
	if err := probe.Validate(); err != nil {
		return nil, err
	}
	p.ops = []op{{
		name: "fleet",
		kind: kServeRun,
		// Placement and Autoscaler keep state, so every run gets fresh ones.
		run:   func(ctx context.Context) (any, error) { return serve.Run(ctx, cfg(), arr) },
		check: func(rep any) error { return checkServe(rep.(*serve.Report), arr, fleetDecodeLen) },
	}}
	p.finish = func(reps []any) ([]headline, []string, []int) {
		return serveHeadline(reps), nil, nil
	}
	return p, nil
}

// serveHeadline sums goodput and preemptions and takes the worst p99
// TTFT across a workload's serving runs.
func serveHeadline(reps []any) []headline {
	var goodput, ttft float64
	var preempt int
	for _, r := range reps {
		if rep, ok := r.(*serve.Report); ok {
			goodput += rep.Goodput
			ttft = max(ttft, rep.TTFT.P99)
			preempt += rep.Capacity.Preemptions
		}
	}
	return []headline{
		{Name: "model.goodput_tok_s", Value: goodput},
		{Name: "model.ttft_p99_s", Value: ttft},
		{Name: "model.preemptions", Value: float64(preempt)},
	}
}

// kvBudgetBytes is kv-pressure's per-replica KV budget: two static
// T_max reservations of LLM-7B-32K.
const kvBudgetBytes = 32 << 30

// kvPlan is the classic load-balanced path under KV pressure: a few
// CENT+PIMphony replicas behind least-tokens routing (barrier sync)
// serve one schedule of heavy-tailed 2K-30K contexts with heavy-tailed
// long decodes, once under static reservation and once under DPA.
func kvPlan(seed int64, size instance, traced bool) (*plan, error) {
	replicas, n, rate := 2, 8000, 64.0
	if size == tiny {
		replicas, n = 2, 96
	}
	m := model.LLM7B32K()
	p := &plan{}
	t0 := time.Now()
	gen, err := workload.HeavyTailed(2048, 30000, 1.1, subSeed(seed, 0))
	if err != nil {
		return nil, err
	}
	if err := gen.HeavyTailDecode(256, 2048, 1.1); err != nil {
		return nil, err
	}
	arr, err := workload.PoissonArrivals(gen, rate, 8, n, subSeed(seed, 1))
	if err != nil {
		return nil, err
	}
	p.genTime = time.Since(t0)
	p.requests = len(arr)
	p.inputs = inputDigest(arr)
	if err := checkFits(arr, m); err != nil {
		return nil, err
	}
	allocs := []struct {
		name string
		dpa  bool
	}{{"static", false}, {"dpa", true}}
	for _, al := range allocs {
		sys := withBackend(core.CENT(m, core.PIMphony()), traced)
		sys.Tech.DPA = al.dpa
		sys.KVBudgetBytes = kvBudgetBytes
		cfg := func() serve.Config {
			return serve.Config{
				System:   sys,
				Replicas: replicas,
				Policy:   serve.LeastOutstandingTokens(),
				SLO:      serve.SLO{TTFT: 0.05, TBT: 0.025},
			}
		}
		if err := sys.Validate(); err != nil {
			return nil, err
		}
		probe := cfg()
		if err := probe.Validate(); err != nil {
			return nil, err
		}
		p.devs = appendDev(p.devs, sys.Dev)
		p.ops = append(p.ops, op{
			name:  al.name,
			kind:  kServeRun,
			run:   func(ctx context.Context) (any, error) { return serve.Run(ctx, cfg(), arr) },
			check: func(rep any) error { return checkServe(rep.(*serve.Report), arr, 0) },
		})
	}
	// Static reservation admits at most pool/T_max requests per replica.
	staticCap := int(kvBudgetBytes / (int64(m.ContextWindow) * m.KVBytesPerToken()))
	p.finish = func(reps []any) ([]headline, []string, []int) {
		st, ok1 := reps[0].(*serve.Report)
		dpa, ok2 := reps[1].(*serve.Report)
		var breached []int
		var notes []string
		if ok1 && ok2 {
			if st.Capacity.MaxActive > staticCap || st.Capacity.MaxActive >= dpa.Capacity.MaxActive {
				breached = append(breached, 0)
			}
			notes = append(notes, fmt.Sprintf("max-active static %d (cap pool/T_max = %d) vs dpa %d",
				st.Capacity.MaxActive, staticCap, dpa.Capacity.MaxActive))
		}
		return serveHeadline(reps), notes, breached
	}
	return p, nil
}
