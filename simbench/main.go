// Command simbench is the simulator's benchmark. It runs one named
// workload from a seed in fresh child processes, closed loop, back to
// back, until the requested measuring time is spent, and prints the
// medians of the end-to-end metrics (--trace 0) or of the per-layer
// metrics (--trace 1) as one JSON object on its last line of output.
//
//	simbench --workload ladder-cold --seed 1 --seconds 10 --trace 0
//
// Every child process starts with cold caches, as every CLI run does,
// runs the workload's simulation calls one after another with the sweep
// engine pinned to one worker, checks the reports, and hands its
// measurements back on standard output. See README.md for the metrics
// and workloads.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pimphony/internal/cluster"
	"pimphony/internal/perfmodel"
	"pimphony/internal/serve"
	"pimphony/internal/sweep"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: ladder-cold, fleet-day or kv-pressure")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Float64("seconds", 10, "measuring time; child processes run back to back until it is spent")
		trace   = flag.Int("trace", 0, "1 prints the per-layer metrics of traced runs instead of the end-to-end metrics")
		child   = flag.Bool("child", false, "run the workload once in this process and print its measurements (used by the parent)")
	)
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(2)
	}
	if *child {
		err = runChild(os.Stdout, w, *seed, *trace == 1)
	} else {
		err = runParent(os.Stdout, w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
}

// ---------------------------------------------------------------------------
// Child: one fresh process, one pass over the workload (plus, traced, a
// warm rerun of the same inputs).
// ---------------------------------------------------------------------------

// childResult is what one child process reports to the parent.
type childResult struct {
	// FirstCall is the wall-clock time of the first simulation call, in
	// Unix nanoseconds; the parent subtracts its spawn time.
	FirstCall int64   `json:"first_call_unix_ns"`
	WallS     float64 `json:"wall_s"`
	SimTokens int64   `json:"sim_tokens"`
	Ops       int     `json:"ops"`
	OpsFailed int     `json:"ops_failed"`
	Digest    string  `json:"digest"`
	// Failures names the ops that failed and why.
	Failures []string   `json:"failures,omitempty"`
	Headline []headline `json:"headline"`
	Notes    []string   `json:"notes,omitempty"`
	Go       goStats    `json:"go"`
	// Layers is set by traced children only.
	Layers map[string]float64 `json:"layers,omitempty"`
}

// pass is the outcome of running a plan's ops once.
type pass struct {
	wall      time.Duration
	simTokens int64
	digest    string
	failed    int
	failures  []string
	reps      []any
	headline  []headline
	notes     []string
	lookups   int64
	misses    int
}

// execute runs every op of the plan back to back, timing from the
// first call to the last result, then checks the reports. With tr set,
// each op is recorded as a span enclosing the layer calls it makes.
func execute(ctx context.Context, p *plan, tr *tracer) pass {
	var out pass
	errs := make([]error, len(p.ops))
	out.reps = make([]any, len(p.ops))
	lookups0, misses0 := perfCounts(p)
	tok0 := cluster.SimulatedTokens()
	start := time.Now()
	for i, o := range p.ops {
		if tr != nil {
			s := tr.begin(o.kind)
			out.reps[i], errs[i] = o.run(ctx)
			tr.end(s)
		} else {
			out.reps[i], errs[i] = o.run(ctx)
		}
	}
	out.wall = time.Since(start)
	out.simTokens = cluster.SimulatedTokens() - tok0
	lookups1, misses1 := perfCounts(p)
	out.lookups, out.misses = lookups1-lookups0, misses1-misses0

	d := newDigest()
	bad := make([]bool, len(p.ops))
	for i, o := range p.ops {
		d.add(o.name, out.reps[i], errs[i])
		if errs[i] == nil {
			errs[i] = o.check(out.reps[i])
		} else {
			out.reps[i] = nil
		}
		if errs[i] != nil {
			bad[i] = true
			out.failures = append(out.failures, fmt.Sprintf("%s: %v", o.name, errs[i]))
		}
	}
	var breached []int
	out.headline, out.notes, breached = p.finish(out.reps)
	for _, i := range breached {
		if !bad[i] {
			bad[i] = true
			out.failures = append(out.failures, fmt.Sprintf("%s: breaches a cross-run invariant", p.ops[i].name))
		}
	}
	if d.err != nil {
		bad[0] = true
		out.failures = append(out.failures, d.err.Error())
	}
	for _, b := range bad {
		if b {
			out.failed++
		}
	}
	out.digest = d.sum()
	return out
}

// perfCounts sums the lookups and cold simulations of the shared
// kernel-latency services the plan prices against.
func perfCounts(p *plan) (lookups int64, misses int) {
	for _, dev := range p.devs {
		s := perfmodel.Shared(dev)
		lookups += s.CacheLookups()
		misses += s.CacheMisses()
	}
	return lookups, misses
}

func runChild(stdout io.Writer, w workloadDef, seed int64, traced bool) error {
	spansFile := ""
	if traced {
		spansFile = spansPath(w.name)
	}
	res, err := measure(w, seed, full, traced, spansFile)
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(res)
}

// measure builds one workload instance and runs it once in this
// process. Traced, it records spans around every layer call, reruns
// the same inputs warm to attribute the kernel memo's miss path, and
// at the end writes the cold pass's spans to spansFile (when not
// empty).
func measure(w workloadDef, seed int64, size instance, traced bool, spansFile string) (childResult, error) {
	// One caller, one worker: every sweep in the simulator runs its
	// points sequentially.
	sweep.SetDefault(1)
	ctx := context.Background()
	p, err := w.plan(seed, size, traced)
	if err != nil {
		return childResult{}, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	res := childResult{FirstCall: time.Now().UnixNano()}
	var tr *tracer
	if traced {
		tr = tracing
		tr.reset()
	}
	go0 := readGoStats()
	cold := execute(ctx, p, tr)
	res.Go = readGoStats().minus(go0)
	res.WallS = cold.wall.Seconds()
	res.SimTokens = cold.simTokens
	res.Ops = len(p.ops)
	res.OpsFailed = cold.failed
	res.Failures = cold.failures
	res.Digest = cold.digest
	res.Headline = cold.headline
	res.Notes = cold.notes
	if !traced {
		return res, nil
	}
	if res.Layers, err = layerMetrics(p, cold, tr.totals()); err != nil {
		return childResult{}, err
	}
	coldSpans := tr.take()
	// The warm rerun prices the same inputs against the kernel memo the
	// cold pass filled; the difference is the miss path's cost.
	tr.reset()
	warm := execute(ctx, p, tr)
	res.Layers["perfmodel.miss_s"] = (cold.wall - warm.wall).Seconds()
	res.Ops += len(p.ops)
	res.OpsFailed += warm.failed
	res.Failures = append(res.Failures, warm.failures...)
	if warm.digest != cold.digest {
		res.OpsFailed += len(p.ops) - warm.failed
		res.Failures = append(res.Failures, "warm rerun digest differs from the cold pass")
	}
	if spansFile != "" {
		if err := writeSpans(spansFile, coldSpans); err != nil {
			return childResult{}, fmt.Errorf("writing spans: %w", err)
		}
	}
	return res, nil
}

// spansPath is where a traced child writes its cold pass's spans: next
// to the benchmark binary, one file per workload, overwritten by each
// traced child so repeated runs do not pile up files.
func spansPath(workload string) string {
	dir := "."
	if exe, err := os.Executable(); err == nil {
		dir = filepath.Dir(exe)
	}
	return filepath.Join(dir, "spans-"+workload+".bin")
}

// layerMetrics derives the per-layer metrics of one traced cold pass
// from its spans and reports. perfmodel.miss_s, go.* and
// trace.overhead are filled in by the caller and the parent.
func layerMetrics(p *plan, cold pass, t spanTotals) (map[string]float64, error) {
	if t.nestingErr != nil {
		return nil, t.nestingErr
	}
	sec := func(d time.Duration) float64 { return d.Seconds() }
	m := map[string]float64{
		"workload.gen_s":    sec(p.genTime),
		"workload.requests": float64(p.requests),

		"perfmodel.lookups": float64(cold.lookups),
		"perfmodel.misses":  float64(cold.misses),

		"backend.systems":       float64(t.count[kNewStepper]),
		"backend.step_calls":    float64(t.count[kStep]),
		"backend.step_s":        sec(t.total[kStep]),
		"backend.prefill_calls": float64(t.count[kPrefill]),

		"memory.admit_calls":       float64(t.count[kMemAdmit]),
		"memory.grow_calls":        float64(t.count[kMemGrow] + t.count[kMemGrowFailed]),
		"memory.grow_failed":       float64(t.count[kMemGrowFailed]),
		"memory.grow_budget_calls": float64(t.count[kMemGrowBudget]),
		"memory.release_calls":     float64(t.count[kMemRelease]),

		"serve.run_s":  sec(t.total[kServeRun]),
		"serve.self_s": sec(t.self[kServeRun]),

		"cluster.run_calls": float64(t.count[kClusterRun]),
		"cluster.run_s":     sec(t.total[kClusterRun]),
		"cluster.self_s":    sec(t.self[kClusterRun]),

		"trace.spans":       float64(t.spans),
		"trace.wall_s":      sec(cold.wall),
		"trace.remainder_s": sec(cold.wall - t.topLevel),
	}
	m["perfmodel.hit_ratio"] = ratio(float64(cold.lookups-int64(cold.misses)), float64(cold.lookups))
	var backendS, memoryS time.Duration
	for k := spanKind(0); k < nKinds; k++ {
		switch {
		case k.isBackend():
			backendS += t.self[k]
		case k.isMemory():
			memoryS += t.self[k]
		}
	}
	m["backend.s"] = sec(backendS)
	m["memory.s"] = sec(memoryS)
	m["memory.grow_fail_ratio"] = ratio(m["memory.grow_failed"], m["memory.grow_calls"])
	m["memory.reserved_over_live"] = ratio(t.reserved, t.live)

	var c reportCounts
	for _, r := range cold.reps {
		c.add(r)
	}
	m["engine.iterations"] = float64(c.iterations)
	m["engine.preemptions"] = float64(c.preemptions)
	m["engine.grows_per_iteration"] = ratio(m["memory.grow_calls"], float64(c.iterations))
	m["serve.handoffs"] = float64(c.handoffs)
	m["serve.migrations"] = float64(c.migrations)
	m["serve.steals"] = float64(c.steals)
	m["serve.held"] = float64(c.held)
	m["serve.scale_ups"] = float64(c.scaleUps)
	m["serve.drains"] = float64(c.drains)
	m["serve.crashes"] = float64(c.crashes)
	m["serve.retries"] = float64(c.retries)
	return m, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// reportCounts sums the work counters the simulator reports but does
// not expose as calls: engine iterations and preemptions, and the fleet
// scheduler's and fault injector's actions.
type reportCounts struct {
	iterations, preemptions            int
	handoffs, migrations, steals, held int
	scaleUps, drains, crashes, retries int
}

func (c *reportCounts) add(r any) {
	switch rep := r.(type) {
	case *cluster.Report:
		c.iterations += rep.Steps
	case *serve.Report:
		for _, st := range rep.PerReplica {
			c.iterations += st.Steps
		}
		c.preemptions += rep.Capacity.Preemptions
		if f := rep.Fleet; f != nil {
			c.handoffs += f.Handoffs
			c.migrations += f.Migrations
			c.steals += f.Steals
			c.held += f.Held
			c.scaleUps += f.ScaleUps
			c.drains += f.Drains
		}
		if f := rep.Faults; f != nil {
			c.crashes += f.Crashes
			c.retries += f.Retries
		}
	}
}

// ---------------------------------------------------------------------------
// Parent: spawn children until the measuring time is spent, take medians.
// ---------------------------------------------------------------------------

const (
	// minChildren is the fewest untraced children a run measures, so a
	// run of the slowest workload still takes the middle of two processes.
	minChildren = 2
	// runBudget bounds a whole run, spawning included: no child starts
	// unless the slowest child so far would still finish inside it.
	runBudget = 150 * time.Second
)

// sample is one child's measurements as the parent sees them.
type sample struct {
	res    childResult
	setupS float64
	rssMB  float64
	traced bool
}

func spawn(ctx context.Context, exe string, w workloadDef, seed int64, traced bool) (sample, error) {
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "--child", "--workload", w.name,
		"--seed", strconv.FormatInt(seed, 10), "--trace", tr)
	cmd.Stderr = os.Stderr
	start := time.Now()
	out, err := cmd.Output()
	if err != nil {
		return sample{}, fmt.Errorf("child %s (trace %s): %w", w.name, tr, err)
	}
	var s sample
	if err := json.Unmarshal(out, &s.res); err != nil {
		return sample{}, fmt.Errorf("child %s: bad result: %w", w.name, err)
	}
	s.traced = traced
	s.setupS = float64(s.res.FirstCall-start.UnixNano()) / 1e9
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		s.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return s, nil
}

func runParent(stdout io.Writer, w workloadDef, seed int64, seconds time.Duration, traced bool) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	// A signal or the deadline kills the running child before the parent
	// returns, so no child outlives the run.
	sig, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(sig, runBudget+20*time.Second)
	defer cancel()
	begin := time.Now()
	var untraced, tracedRuns []sample
	var slowest time.Duration
	// Traced runs alternate an untraced child (the overhead base and the
	// go.* source) with a traced one.
	kinds := []bool{false}
	if traced {
		kinds = []bool{false, true}
	}
	for {
		for _, k := range kinds {
			t0 := time.Now()
			s, err := spawn(ctx, exe, w, seed, k)
			if err != nil {
				return err
			}
			slowest = max(slowest, time.Since(t0))
			if k {
				tracedRuns = append(tracedRuns, s)
			} else {
				untraced = append(untraced, s)
			}
		}
		elapsed := time.Since(begin)
		enough := elapsed >= seconds && (traced || len(untraced) >= minChildren)
		if enough || elapsed+time.Duration(len(kinds))*slowest > runBudget {
			break
		}
	}
	res, lines := summarize(w, seed, traced, untraced, tracedRuns)
	for _, l := range lines {
		fmt.Fprintln(stdout, l)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// summarize folds the children's measurements into the result line:
// medians of the end-to-end metrics (untraced run) or the per-layer
// metrics (traced run), the op counts, and the correctness verdict —
// every op passed its checks and every child, traced or not, produced
// the same model_digest. lines are the informational lines printed
// before the result.
func summarize(w workloadDef, seed int64, traced bool, untraced, tracedRuns []sample) (summary, []string) {
	all := append(append([]sample(nil), untraced...), tracedRuns...)
	res := summary{Correct: true, Metrics: map[string]metricValue{}}
	var lines []string
	digest := all[0].res.Digest
	for _, s := range all {
		res.Attempted += s.res.Ops
		res.Failed += s.res.OpsFailed
		if s.res.OpsFailed > 0 {
			res.Correct = false
		}
		if s.res.Digest != digest {
			res.Correct = false
			lines = append(lines, fmt.Sprintf("model_digest mismatch: %s (traced=%v) vs %s", s.res.Digest, s.traced, digest))
		}
		for _, f := range s.res.Failures {
			lines = append(lines, "failed op: "+f)
		}
	}
	first := all[0].res
	lines = append(lines,
		fmt.Sprintf("simbench workload=%s seed=%d trace=%v children=%d ops=%d ops_failed=%d",
			w.name, seed, traced, len(all), res.Attempted, res.Failed),
		"model_digest="+digest)
	for _, h := range first.Headline {
		if h.NA {
			lines = append(lines, h.Name+"=n/a (simulated; not defined for this workload)")
		} else {
			lines = append(lines, fmt.Sprintf("%s=%g (simulated)", h.Name, h.Value))
		}
	}
	lines = append(lines, first.Notes...)
	simRate := median(field(untraced, func(s sample) float64 { return float64(s.res.SimTokens) / s.res.WallS }))
	if !traced {
		lines = append(lines, fmt.Sprintf("sim_tok_per_s=%g (host; reported as cluster.sim_tok_per_s by --trace 1)", simRate))
		vals := map[string]func(sample) float64{
			"wall_s":     func(s sample) float64 { return s.res.WallS },
			"setup_s":    func(s sample) float64 { return s.setupS },
			"max_rss_mb": func(s sample) float64 { return s.rssMB },
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metricValue{median(field(untraced, vals[d.name])), d.unit}
		}
		return res, lines
	}
	// The layer values come from one traced child, the one with the
	// median traced wall, so its self times still add up to its wall.
	// The counts repeat exactly across children anyway.
	byWall := append([]sample(nil), tracedRuns...)
	sort.Slice(byWall, func(i, j int) bool { return byWall[i].res.WallS < byWall[j].res.WallS })
	mid := byWall[(len(byWall)-1)/2].res.Layers
	for _, d := range perLayer {
		var v float64
		switch {
		case strings.HasPrefix(d.name, "go."):
			// The runtime counters come from the untraced children:
			// spans are allocated too.
			v = median(field(untraced, func(s sample) float64 { return s.res.Go.value(d.name) }))
		case d.name == "cluster.sim_tok_per_s":
			v = simRate
		case d.name == "perfmodel.miss_s":
			// A difference of two walls: where the miss path is a small
			// share it is within the host's noise, so take the median.
			v = median(field(tracedRuns, func(s sample) float64 { return s.res.Layers[d.name] }))
		case d.name == "trace.overhead":
			wallT := median(field(tracedRuns, func(s sample) float64 { return s.res.WallS }))
			wallU := median(field(untraced, func(s sample) float64 { return s.res.WallS }))
			v = wallT/wallU - 1
		default:
			v = mid[d.name]
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
	}
	return res, lines
}

// summary is the benchmark's last line of output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func field(ss []sample, f func(sample) float64) []float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = f(s)
	}
	return xs
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
