package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"sync"
	"time"

	"pimphony/internal/backend"
	"pimphony/internal/energy"
	"pimphony/internal/memory"
	"pimphony/internal/workload"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	kServeRun      spanKind = iota // serve.Run: one serving op
	kClusterRun                    // core.NewSystem + System.Run: one ladder op
	kStep                          // Stepper.Step / StepSlice / Backend.Step
	kPrefill                       // Backend.PrefillSeconds
	kNewStepper                    // Incremental.NewStepper: one System built
	kMemNew                        // Admission.NewAllocator
	kMemAdmit                      // Allocator.Admit
	kMemCanAdmit                   // Allocator.CanAdmit
	kMemGrow                       // Allocator.Grow that succeeded
	kMemGrowFailed                 // Allocator.Grow that returned an error
	kMemGrowBudget                 // Allocator.GrowBudget
	kMemRelease                    // Allocator.Release
	nKinds
)

var kindNames = [nKinds]string{
	"serve.run", "cluster.run", "backend.step", "backend.prefill", "backend.new_stepper",
	"memory.new", "memory.admit", "memory.can_admit", "memory.grow", "memory.grow_failed",
	"memory.grow_budget", "memory.release",
}

func (k spanKind) isBackend() bool { return k >= kStep && k <= kNewStepper }
func (k spanKind) isMemory() bool  { return k >= kMemNew && k <= kMemRelease }

// span is one timed call. Times are nanoseconds since the tracer's
// reset; parent indexes the enclosing span (-1 for an op span).
type span struct {
	start, end int64
	parent     int32
	kind       spanKind
}

// tracer records one span per call into each traced layer. Calls nest
// as a stack: a span opened while another is open becomes its child, so
// a layer's self time is its spans' durations minus their children's.
// The simulator is driven by one caller with the sweep engine pinned to
// one worker, so calls never overlap; end reports a mismatched close as
// an error rather than building a wrong tree.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
	open  int32 // innermost open span, -1 when none
	err   error
	// reserved and live sum the allocators' ReservedBytes and LiveBytes
	// after every Admit and Grow, for memory.reserved_over_live.
	reserved, live float64
}

func newTracer() *tracer {
	t := &tracer{}
	t.reset()
	return t
}

// reset drops every recorded span and restarts the clock.
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.base = time.Now()
	t.spans = t.spans[:0]
	t.open = -1
	t.err = nil
	t.reserved, t.live = 0, 0
}

// begin opens a span and returns its index for end.
func (t *tracer) begin(k spanKind) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{start: int64(time.Since(t.base)), parent: t.open, kind: k})
	t.open = i
	return i
}

// end closes the span begin returned.
func (t *tracer) end(i int32) {
	now := int64(time.Since(t.base))
	t.mu.Lock()
	defer t.mu.Unlock()
	if i != t.open && t.err == nil {
		t.err = fmt.Errorf("trace: span %d (%s) closed while span %d is innermost", i, kindNames[t.spans[i].kind], t.open)
	}
	t.spans[i].end = now
	t.open = t.spans[i].parent
}

// retag changes an open span's kind (a Grow learns whether it failed
// only after the call).
func (t *tracer) retag(i int32, k spanKind) {
	t.mu.Lock()
	t.spans[i].kind = k
	t.mu.Unlock()
}

// sample accumulates one allocator occupancy sample.
func (t *tracer) sample(a memory.Allocator) {
	r, l := a.ReservedBytes(), a.LiveBytes()
	t.mu.Lock()
	t.reserved += float64(r)
	t.live += float64(l)
	t.mu.Unlock()
}

// spanTotals folds the recorded spans per kind.
type spanTotals struct {
	count      [nKinds]int
	total      [nKinds]time.Duration // summed span durations
	self       [nKinds]time.Duration // durations minus direct children
	topLevel   time.Duration         // summed op-span durations
	spans      int
	reserved   float64
	live       float64
	nestingErr error
}

func (t *tracer) totals() spanTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := spanTotals{spans: len(t.spans), reserved: t.reserved, live: t.live, nestingErr: t.err}
	if out.nestingErr == nil && t.open != -1 {
		out.nestingErr = fmt.Errorf("trace: span %d (%s) never closed", t.open, kindNames[t.spans[t.open].kind])
	}
	children := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		d := time.Duration(s.end - s.start)
		out.count[s.kind]++
		out.total[s.kind] += d
		out.self[s.kind] += d - time.Duration(children[i])
		if s.parent < 0 {
			out.topLevel += d
		}
	}
	return out
}

// take hands over the recorded spans and starts an empty record.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans
	t.spans = nil
	return s
}

// writeSpans stores spans so a run can be inspected after the fact: a
// header line naming the kinds, then per span in creation order its
// kind byte and three uvarints — the distance back to its parent's
// index (0 for an op span), its start minus the previous span's start,
// and its duration, all in nanoseconds.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "simbench-spans v1 kinds=%q count=%d\n", kindNames, len(spans))
	var rec [1 + 3*binary.MaxVarintLen64]byte
	var prev int64
	for i, s := range spans {
		var up uint64
		if s.parent >= 0 {
			up = uint64(int32(i) - s.parent)
		}
		rec[0] = byte(s.kind)
		n := 1 + binary.PutUvarint(rec[1:], up)
		n += binary.PutUvarint(rec[n:], uint64(s.start-prev))
		n += binary.PutUvarint(rec[n:], uint64(s.end-s.start))
		prev = s.start
		w.Write(rec[:n]) // a write error sticks in w and surfaces at Flush
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedPrefix names the forwarding backends: "traced/pim-only" wraps
// "pim-only".
const tracedPrefix = "traced/"

// tracing is the process's tracer. The forwarding backends are
// registered once at start-up and record into it; untraced runs never
// select them.
var tracing = newTracer()

func init() {
	for _, name := range backend.Names() {
		inner, err := backend.Lookup(name)
		if err != nil {
			panic(err) // a name backend.Names just listed
		}
		backend.Register(&tracedBackend{inner: inner, tr: tracing})
	}
}

// tracedBackend forwards every call to the backend it wraps and records
// a span around each call that does work: iteration pricing, prefill
// pricing, stepper construction, and every call into the KV allocator
// the admission parameters build. Placement and Autoscaler are not
// wrapped: their indexed fast paths are unexported refinements that a
// wrapper would silently disable.
type tracedBackend struct {
	inner backend.Backend
	tr    *tracer
}

func (b *tracedBackend) Name() string                         { return tracedPrefix + b.inner.Name() }
func (b *tracedBackend) Describe() string                     { return "traced " + b.inner.Describe() }
func (b *tracedBackend) PIMAttention() bool                   { return b.inner.PIMAttention() }
func (b *tracedBackend) Validate(env *backend.Env) error      { return b.inner.Validate(env) }
func (b *tracedBackend) CapacityBytes(env *backend.Env) int64 { return b.inner.CapacityBytes(env) }
func (b *tracedBackend) CostPerHour(env *backend.Env) float64 { return b.inner.CostPerHour(env) }

func (b *tracedBackend) IterEnergy(env *backend.Env, cost backend.StepCost, batch int) (attn, fc energy.Breakdown) {
	return b.inner.IterEnergy(env, cost, batch)
}

func (b *tracedBackend) Step(ctx context.Context, env *backend.Env, batch []workload.Request, tokensOf backend.TokensOf) (backend.StepCost, error) {
	i := b.tr.begin(kStep)
	defer b.tr.end(i)
	return b.inner.Step(ctx, env, batch, tokensOf)
}

func (b *tracedBackend) PrefillSeconds(env *backend.Env, context int) float64 {
	i := b.tr.begin(kPrefill)
	defer b.tr.end(i)
	return b.inner.PrefillSeconds(env, context)
}

// NewStepper forwards backend.Incremental. A wrapped backend without a
// stepper yields nil, which the cluster step loop treats exactly like a
// backend that does not implement Incremental.
func (b *tracedBackend) NewStepper(env *backend.Env) backend.Stepper {
	inc, ok := b.inner.(backend.Incremental)
	if !ok {
		return nil
	}
	i := b.tr.begin(kNewStepper)
	st := inc.NewStepper(env)
	b.tr.end(i)
	if st == nil {
		return nil
	}
	ts := tracedStepper{inner: st, tr: b.tr}
	if ss, ok := st.(backend.SliceStepper); ok {
		return tracedSliceStepper{tracedStepper: ts, slice: ss}
	}
	return ts
}

// Admission forwards the wrapped backend's admission parameters with
// the allocator constructor replaced by one that returns a timing
// allocator. A nil constructor is the cluster's technique default,
// reproduced here: DPA chunks when Tech.DPA, static T_max reservation
// otherwise.
func (b *tracedBackend) Admission(env *backend.Env) backend.Admission {
	adm := b.inner.Admission(env)
	newAlloc := adm.NewAllocator
	if newAlloc == nil {
		dpa := env.Tech.DPA
		newAlloc = func(pool, bytesPerToken int64, tmax int) (memory.Allocator, error) {
			if dpa {
				return memory.NewDPA(pool, bytesPerToken, memory.DefaultChunkBytes)
			}
			return memory.NewStatic(pool, bytesPerToken, tmax)
		}
	}
	tr := b.tr
	adm.NewAllocator = func(pool, bytesPerToken int64, tmax int) (memory.Allocator, error) {
		i := tr.begin(kMemNew)
		a, err := newAlloc(pool, bytesPerToken, tmax)
		tr.end(i)
		if err != nil {
			return nil, err
		}
		return &timedAllocator{inner: a, tr: tr}, nil
	}
	return adm
}

type tracedStepper struct {
	inner backend.Stepper
	tr    *tracer
}

func (s tracedStepper) Step(ctx context.Context, batch []workload.Request, tokensOf backend.TokensOf) (backend.StepCost, error) {
	i := s.tr.begin(kStep)
	defer s.tr.end(i)
	return s.inner.Step(ctx, batch, tokensOf)
}

// tracedSliceStepper forwards backend.SliceStepper for steppers that
// offer it, so the cluster keeps its slice fast path.
type tracedSliceStepper struct {
	tracedStepper
	slice backend.SliceStepper
}

func (s tracedSliceStepper) StepSlice(ctx context.Context, batch []workload.Request, toks []int) (backend.StepCost, error) {
	i := s.tr.begin(kStep)
	defer s.tr.end(i)
	return s.slice.StepSlice(ctx, batch, toks)
}

// timedAllocator records a span around every allocator call that
// changes or queries admission state. The occupancy getters are
// forwarded untimed: they read two fields.
type timedAllocator struct {
	inner memory.Allocator
	tr    *tracer
}

func (a *timedAllocator) Name() string         { return a.inner.Name() }
func (a *timedAllocator) LiveBytes() int64     { return a.inner.LiveBytes() }
func (a *timedAllocator) ReservedBytes() int64 { return a.inner.ReservedBytes() }
func (a *timedAllocator) CapacityBytes() int64 { return a.inner.CapacityBytes() }

func (a *timedAllocator) Admit(reqID, tokens int) error {
	i := a.tr.begin(kMemAdmit)
	err := a.inner.Admit(reqID, tokens)
	a.tr.end(i)
	a.tr.sample(a.inner)
	return err
}

func (a *timedAllocator) Grow(reqID, newTokens int) error {
	i := a.tr.begin(kMemGrow)
	err := a.inner.Grow(reqID, newTokens)
	if err != nil {
		a.tr.retag(i, kMemGrowFailed)
	}
	a.tr.end(i)
	a.tr.sample(a.inner)
	return err
}

func (a *timedAllocator) Release(reqID int) error {
	i := a.tr.begin(kMemRelease)
	defer a.tr.end(i)
	return a.inner.Release(reqID)
}

func (a *timedAllocator) CanAdmit(tokens int) bool {
	i := a.tr.begin(kMemCanAdmit)
	defer a.tr.end(i)
	return a.inner.CanAdmit(tokens)
}

func (a *timedAllocator) GrowBudget(reqIDs []int) int {
	i := a.tr.begin(kMemGrowBudget)
	defer a.tr.end(i)
	return a.inner.GrowBudget(reqIDs)
}
