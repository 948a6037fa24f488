package cluster

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"pimphony/internal/backend"
	"pimphony/internal/model"
	"pimphony/internal/timing"
	"pimphony/internal/workload"
)

// stepTrace is the flattened per-iteration event stream of an engine
// drain: one entry per decode iteration, in simulation order, with the
// admission/preemption/completion events attached to the iteration that
// produced them (a leap expands to Iterations entries).
type stepTrace struct {
	Seconds   float64
	Batch     int
	Admitted  []int
	Generated []int
	Preempted []int
	Completed []int
}

func ids(reqs []workload.Request) []int {
	if len(reqs) == 0 {
		return nil
	}
	out := make([]int, len(reqs))
	for i, r := range reqs {
		out[i] = r.ID
	}
	return out
}

// drainTrace drains an engine and returns the flattened iteration
// trace. leap selects Engine.Leap (multi-step fast-forward) over the
// naive one-iteration Step loop.
func drainTrace(t *testing.T, e *Engine, leap bool) []stepTrace {
	t.Helper()
	var out []stepTrace
	for i := 0; !e.Idle(); i++ {
		if i > 1_000_000 {
			t.Fatal("engine did not drain")
		}
		var res StepResult
		var err error
		if leap {
			res, err = e.Leap(context.Background(), 0, math.Inf(1))
		} else {
			res, err = e.Step(context.Background())
		}
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations <= 1 {
			out = append(out, stepTrace{Seconds: res.Seconds, Batch: res.Batch,
				Admitted: ids(res.Admitted), Generated: append([]int(nil), res.Generated...),
				Preempted: ids(res.Preempted), Completed: ids(res.Completed)})
			continue
		}
		// Expand the leap: every Generated ID emitted one token per
		// iteration; completions land on the final iteration.
		for it, sec := range res.IterSeconds {
			st := stepTrace{Seconds: sec, Batch: res.Batch,
				Generated: append([]int(nil), res.Generated...)}
			if it == res.Iterations-1 {
				st.Completed = ids(res.Completed)
			}
			out = append(out, st)
		}
	}
	return out
}

// engineFor builds a fresh engine for a config with the given requests
// enqueued.
func engineFor(t *testing.T, cfg Config, reqs []workload.Request) *Engine {
	t.Helper()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sys.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		if err := e.Enqueue(r); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestLeapMatchesStepEventStream pins the fast-forward contract at the
// engine level: draining via Leap must produce the identical flattened
// iteration trace — same per-iteration durations, same events on the
// same iterations — and identical aggregate counters as the naive
// one-step loop, including under DPA preemption pressure and on the GPU
// baseline's paged pool.
func TestLeapMatchesStepEventStream(t *testing.T) {
	long := func(cfg Config) Config {
		cfg.DecodeWindow = 8
		return cfg
	}
	tightDPA := long(engineConfig(t, PIMphony()))
	tightDPA.KVBudgetBytes = 4100 << 20 // forces mid-decode preemption
	static := long(engineConfig(t, Technique{TCP: true, DCS: true}))
	static.TMaxOverride = 8192
	static.KVBudgetBytes = 4100 << 20 // admits one at a time
	cases := []struct {
		name string
		cfg  Config
		reqs []workload.Request
	}{
		{"pim-dpa", long(engineConfig(t, PIMphony())), withDecode(workload.NewGenerator(workload.QMSum(), 42).Batch(10), 37)},
		{"pim-static-queued", static, withDecode(workload.Uniform(4096, 3).Batch(4), 60)},
		{"pim-dpa-preempting", tightDPA, []workload.Request{
			{ID: 1, Context: 4096, Decode: 8}, {ID: 2, Context: 4096, Decode: 8}}},
		{"pim-truncating", long(engineConfig(t, PIMphony())), []workload.Request{{ID: 1, Context: 32768 - 90, Decode: 400}}},
		{"gpu-paged", Config{Name: "gpu", Backend: GPUSystem, Model: model.LLM7B32K(), GPUs: 2, DecodeWindow: 4},
			withDecode(workload.NewGenerator(workload.QMSum(), 7).Batch(6), 50)},
		{"dimm-dpa", Config{Name: "dimm", Backend: DIMMPIM, Dev: timing.DDR5DIMM(), Modules: 8, TP: 8, PP: 1,
			Model: model.LLM7B32K(), Tech: PIMphony(), DecodeWindow: 4},
			withDecode(workload.NewGenerator(workload.QMSum(), 9).Batch(6), 45)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			naive := engineFor(t, c.cfg, c.reqs)
			fast := engineFor(t, c.cfg, c.reqs)
			nt := drainTrace(t, naive, false)
			ft := drainTrace(t, fast, true)
			if !reflect.DeepEqual(nt, ft) {
				if len(nt) != len(ft) {
					t.Fatalf("trace lengths diverged: naive %d vs leap %d iterations", len(nt), len(ft))
				}
				for i := range nt {
					if !reflect.DeepEqual(nt[i], ft[i]) {
						t.Fatalf("iteration %d diverged:\nnaive %+v\nleap  %+v", i, nt[i], ft[i])
					}
				}
			}
			if c.name == "pim-dpa-preempting" && naive.Preemptions() == 0 {
				t.Fatal("scenario did not exercise preemption")
			}
			// Aggregates must agree exactly too.
			if naive.Generated() != fast.Generated() || naive.Steps() != fast.Steps() ||
				naive.BusySeconds() != fast.BusySeconds() ||
				naive.Preemptions() != fast.Preemptions() ||
				naive.BlockedSeconds() != fast.BlockedSeconds() ||
				naive.RecomputeSeconds() != fast.RecomputeSeconds() ||
				naive.Utilization() != fast.Utilization() ||
				naive.MaxActive() != fast.MaxActive() ||
				naive.PeakLiveBytes() != fast.PeakLiveBytes() ||
				naive.PeakReservedBytes() != fast.PeakReservedBytes() {
				t.Errorf("aggregates diverged:\nnaive gen=%d steps=%d busy=%g preempt=%d blocked=%g recomp=%g\nleap  gen=%d steps=%d busy=%g preempt=%d blocked=%g recomp=%g",
					naive.Generated(), naive.Steps(), naive.BusySeconds(), naive.Preemptions(), naive.BlockedSeconds(), naive.RecomputeSeconds(),
					fast.Generated(), fast.Steps(), fast.BusySeconds(), fast.Preemptions(), fast.BlockedSeconds(), fast.RecomputeSeconds())
			}
		})
	}
}

// TestLeapSpansQuantizationBuckets: a leap stops only at serving
// events. One static-allocation request grows from 1000 to 1200 tokens,
// across several of perfmodel's quantization-bucket boundaries (1008,
// 1024, 1056, ...), yet after its admitting Step one Leap runs all 199
// remaining iterations, and a leap drain's trace equals single
// stepping's.
func TestLeapSpansQuantizationBuckets(t *testing.T) {
	cfg := engineConfig(t, Technique{TCP: true, DCS: true})
	reqs := []workload.Request{{ID: 1, Context: 1000, Decode: 200}}
	e := engineFor(t, cfg, reqs)
	if _, err := e.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, err := e.Leap(context.Background(), 0, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 199 || !e.Idle() {
		t.Fatalf("leap ran %d of the 199 remaining iterations (idle %v)", res.Iterations, e.Idle())
	}
	step := drainTrace(t, engineFor(t, cfg, reqs), false)
	leap := drainTrace(t, engineFor(t, cfg, reqs), true)
	if !reflect.DeepEqual(step, leap) {
		t.Fatalf("leap drain diverged from single stepping: %d vs %d iterations", len(leap), len(step))
	}
}

func withDecode(reqs []workload.Request, base int) []workload.Request {
	for i := range reqs {
		reqs[i].Decode = base + i%7
	}
	return reqs
}

// TestLeapRespectsUntil: a leap advancing toward a time bound must stop
// with the first iteration that crosses it — the property that keeps
// arrival admission timing identical to single stepping.
func TestLeapRespectsUntil(t *testing.T) {
	cfg := engineConfig(t, PIMphony())
	e := engineFor(t, cfg, []workload.Request{{ID: 1, Context: 4096, Decode: 64}})
	// First call prices one iteration (admission forces the Step path).
	res, err := e.Leap(context.Background(), 0, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	perStep := res.Seconds
	if res.Iterations != 1 {
		t.Fatalf("admitting call leapt %d iterations", res.Iterations)
	}
	// Advance toward a bound ~3.5 iterations out: the leap must stop
	// after the 4th iteration (the one that crosses), not run to the
	// completion horizon.
	until := perStep * 3.5
	res, err = e.Leap(context.Background(), 0, until)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 4 {
		t.Fatalf("leap ran %d iterations toward a 3.5-iteration bound, want 4", res.Iterations)
	}
	var clock float64
	for _, d := range res.IterSeconds[:res.Iterations-1] {
		clock += d
	}
	if clock >= until {
		t.Fatal("leap kept running after crossing the bound")
	}
}

// oneShotStepper prices every iteration through a freshly built stepper,
// so no priced shape outlives its iteration: the pre-memoization pricing
// path, as Backend.Step runs it.
type oneShotStepper struct {
	inc backend.Incremental
	env *backend.Env
}

func (o oneShotStepper) StepSlice(ctx context.Context, batch []workload.Request, toks []int) (backend.StepCost, error) {
	return o.inc.NewStepper(o.env).(backend.SliceStepper).StepSlice(ctx, batch, toks)
}

// failingStepper forwards StepSlice to a stepper for its first left
// calls and fails every later one. It is not a backend.RunStepper, so a
// leap prices through a backend.SliceRun over it.
type failingStepper struct {
	st   backend.SliceStepper
	left int
}

var errPricing = errors.New("pricing failed")

func (f *failingStepper) StepSlice(ctx context.Context, batch []workload.Request, toks []int) (backend.StepCost, error) {
	if f.left == 0 {
		return backend.StepCost{}, errPricing
	}
	f.left--
	return f.st.StepSlice(ctx, batch, toks)
}

// TestLeapErrorCountsPricedIterations: when pricing fails partway
// through a leap, the iterations priced before the failure are on the
// engine's step and token counters as well as on its meter and clocks,
// exactly as a leap clamped to those iterations leaves them.
func TestLeapErrorCountsPricedIterations(t *testing.T) {
	cfg := engineConfig(t, PIMphony())
	cfg.Tech.DPA = false // static reservations: no growth horizon
	reqs := withDecode(workload.NewGenerator(workload.QMSum(), 11).Batch(8), 1<<20)
	const k = 5
	failed, clamped := engineFor(t, cfg, reqs), engineFor(t, cfg, reqs)
	ctx := context.Background()
	for _, e := range []*Engine{failed, clamped} {
		if _, err := e.Step(ctx); err != nil { // admission
			t.Fatal(err)
		}
	}
	fs := &failingStepper{st: failed.sys.stepper, left: k}
	failed.sys.stepper = fs
	failed.SetHorizon(k + 1)
	if _, err := failed.Leap(ctx, 0, math.Inf(1)); !errors.Is(err, errPricing) || fs.left != 0 {
		t.Fatalf("leap returned %v after %d of %d pricing calls, want %v after all", err, k-fs.left, k, errPricing)
	}
	clamped.SetHorizon(k)
	if res, err := clamped.Leap(ctx, 0, math.Inf(1)); err != nil || res.Iterations != k {
		t.Fatalf("clamped leap ran %d iterations (%v), want %d", res.Iterations, err, k)
	}
	type counts struct {
		steps, generated, outstanding int
		totalSec, blockedSec          float64
		meter                         meter
	}
	of := func(e *Engine) counts {
		return counts{e.steps, e.generated, e.outstanding, e.totalSec, e.blockedSec, e.meter}
	}
	if got, want := of(failed), of(clamped); got != want {
		t.Errorf("after a failed leap:\n%+v\nwant (clamped to the priced iterations)\n%+v", got, want)
	}
}

// TestLeapReducesCacheLookups asserts the step-cost memoization's
// headline: a serving drain through the memoizing stepper consults the
// perfmodel cache at least 2x less than the pre-memoization path (which
// priced every (channel, kernel) work unit of every iteration).
func TestLeapReducesCacheLookups(t *testing.T) {
	cfg := engineConfig(t, PIMphony())
	reqs := withDecode(workload.NewGenerator(workload.QMSum(), 11).Batch(8), 48)

	lookupsOf := func(strip bool, leap bool) int64 {
		e := engineFor(t, cfg, reqs)
		if strip {
			e.sys.stepper = oneShotStepper{inc: e.sys.be.(backend.Incremental), env: e.sys.env}
		}
		before := e.sys.env.Perf.CacheLookups()
		drainTrace(t, e, leap)
		return e.sys.env.Perf.CacheLookups() - before
	}
	naive := lookupsOf(true, false)
	fast := lookupsOf(false, true)
	if naive == 0 || fast == 0 {
		t.Fatalf("lookup counters not wired: naive=%d fast=%d", naive, fast)
	}
	if fast*2 > naive {
		t.Errorf("memoized serving run did %d lookups vs %d un-memoized — less than the required 2x reduction", fast, naive)
	}
	t.Logf("perfmodel cache lookups per serving run: %d un-memoized -> %d memoized (%.0fx fewer)",
		naive, fast, float64(naive)/float64(fast))
}
