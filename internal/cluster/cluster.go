// Package cluster composes the channel-level performance model into the
// multi-node decode simulator the paper's end-to-end evaluation needs.
// The system organisations themselves — PIM-only nodes in the style of
// CENT, heterogeneous xPU+PIM nodes in the style of NeuPIMs, the A100
// GPU baseline of Fig. 20, and an L3/LoL-PIM-style DIMM-PIM system —
// live behind the internal/backend seam: this package owns the
// backend-agnostic step loop (admission against a KV allocator,
// iteration pricing, growth, retirement, energy accrual) and asks the
// configured backend to price each phase. Adding a system organisation
// is a backend.Register call, not a fork of the loops here.
//
// Parallelism follows Sec. II-C: tensor parallelism (TP) shards KV heads
// and FC weights across modules with a per-layer all-reduce, and pipeline
// parallelism (PP) assigns contiguous layer ranges to module groups with
// request-granular micro-batches (pipeline bubbles appear whenever the
// batch cannot fill the stages — the CENT long-context collapse of
// Fig. 17).
package cluster

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"pimphony/internal/backend"
	"pimphony/internal/energy"
	"pimphony/internal/hub"
	"pimphony/internal/memory"
	"pimphony/internal/model"
	"pimphony/internal/perfmodel"
	"pimphony/internal/sweep"
	"pimphony/internal/timing"
	"pimphony/internal/workload"
)

// simTokens tallies every decode token priced by a step loop in this
// process (batch simulator and serving engine alike). The benchgate
// derives its sim_rate metric — simulated tokens per wall-second — from
// deltas of this counter around a timed experiment.
var simTokens atomic.Int64

// SimulatedTokens reports the process-wide count of decode tokens
// simulated since start.
func SimulatedTokens() int64 { return simTokens.Load() }

// Re-exported backend names: the values Config.Backend accepts. The
// full set (including backends registered later) is backend.Names().
const (
	// PIMOnly is a CENT-style system: FC on per-module PNM, attention on PIM.
	PIMOnly = backend.PIMOnly
	// XPUPIM is a NeuPIMs-style system: FC on an NPU, attention on PIM.
	XPUPIM = backend.XPUPIM
	// GPUSystem is the A100 flash-decoding + paged-attention baseline.
	GPUSystem = backend.GPU
	// DIMMPIM is an L3/LoL-PIM-style system: host-GPU FC, DIMM-PIM attention.
	DIMMPIM = backend.DIMMPIM
)

// Technique toggles PIMphony's three co-designed techniques.
type Technique = backend.Technique

// Baseline is the all-off configuration.
func Baseline() Technique { return backend.Baseline() }

// PIMphony is the all-on configuration.
func PIMphony() Technique { return backend.PIMphony() }

// Config describes one simulated system.
type Config struct {
	Name string
	// Backend selects the system organisation by registry name
	// (backend.Names()); empty means PIMOnly.
	Backend string
	Dev     timing.Device
	Modules int
	TP, PP  int
	Model   model.Config
	Tech    Technique
	// RowReuse applies the row-reuse KV mapping (Sec. V-C); the paper
	// enables it for GQA models on both baselines and PIMphony.
	RowReuse bool
	// TMaxOverride replaces the model's context window as the static
	// reservation size (used by the Fig. 17 long-context sweep).
	TMaxOverride int
	// DecodeWindow is the number of decode steps to simulate.
	DecodeWindow int
	// GPUs is the device count for GPUSystem configurations.
	GPUs int
	// MaxBatch optionally caps admission (0 = capacity-bound only).
	MaxBatch int
	// KVBudgetBytes optionally caps the KV-cache pool below the physical
	// capacity left after weights (0 = whole pool). The capacity studies
	// use it to compare allocation schemes at an equal memory budget.
	KVBudgetBytes int64
	// ContinuousBatching enables Orca-style iteration-level scheduling:
	// requests that finish their generation length release their KV
	// memory and the next pending request is admitted mid-window.
	ContinuousBatching bool
}

// env builds the backend pricing environment for this configuration.
// The services (perfmodel, hub, energy) are attached by New; a bare env
// suffices for validation.
func (c *Config) env() *backend.Env {
	return &backend.Env{
		Name:     c.Name,
		Dev:      c.Dev,
		Modules:  c.Modules,
		TP:       c.TP,
		PP:       c.PP,
		GPUs:     c.GPUs,
		Model:    c.Model,
		Tech:     c.Tech,
		RowReuse: c.RowReuse,
	}
}

// validate resolves the backend and checks the configuration; Validate
// and New share it, so the backend a config validates against is the
// one New prices with.
func (c *Config) validate() (backend.Backend, *backend.Env, error) {
	if err := c.Model.Validate(); err != nil {
		return nil, nil, err
	}
	if c.KVBudgetBytes < 0 {
		return nil, nil, fmt.Errorf("cluster %s: KVBudgetBytes must be non-negative", c.Name)
	}
	be, err := backend.Lookup(c.Backend)
	if err != nil {
		return nil, nil, err
	}
	env := c.env()
	if err := be.Validate(env); err != nil {
		return nil, nil, err
	}
	return be, env, nil
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	_, _, err := c.validate()
	return err
}

// Report is the outcome of one simulation.
type Report struct {
	Config string
	// Backend is the system organisation's registry name.
	Backend      string
	Batch        int
	Steps        int
	TotalSeconds float64
	// Throughput is decode tokens per second (the paper's metric).
	Throughput float64
	// PIMUtil is aggregate MAC-pipeline utilization over the attention
	// phase across all channels (the Fig. 4 metric). Zero for GPU systems.
	PIMUtil float64
	// AttnTimeShare is the attention fraction of iteration time.
	AttnTimeShare float64
	// CapacityUtil is the KV allocator's live/reserved ratio at admission.
	CapacityUtil float64
	// TBTSeconds is the mean time-between-tokens a request observes (the
	// serving-latency counterpart of throughput: one decode iteration).
	TBTSeconds float64
	// Energy breakdowns (attention on PIM; FC on PNM/NPU/GPU). Zero for
	// backends outside the PIM module energy model.
	AttnEnergy energy.Breakdown
	FCEnergy   energy.Breakdown
}

// System is a reusable simulator instance (kernel latencies are memoized
// across runs on the same device). A System is not safe for concurrent
// use: the step loops and the backend's stepper share per-System scratch
// state. Sweeps build one System per point.
type System struct {
	cfg Config
	be  backend.Backend
	env *backend.Env
	adm backend.Admission
	// stepper is the backend's memoizing iteration pricer: iterate, and
	// through it both the batch simulator and the serving engine's Step,
	// prices every decode iteration through its StepSlice; a serving leap
	// prices through startRun.
	stepper backend.SliceStepper
	// adapt is the pooled run startRun hands out for a stepper that is
	// not a backend.RunStepper, made on first use.
	adapt *backend.SliceRun
}

// New builds a simulator for a configuration.
func New(cfg Config) (*System, error) {
	if cfg.DecodeWindow <= 0 {
		cfg.DecodeWindow = 16
	}
	be, env, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	// The latency service is shared per device across all Systems in the
	// process: kernel pricing is pure in (device, query), so grid sweeps
	// and serving replicas reuse each other's cold simulations instead
	// of re-running them per instance.
	env.Perf = perfmodel.Shared(cfg.Dev)
	env.Hub = hub.New(cfg.Dev)
	env.EMod = energy.Default()
	st, err := stepperFor(be, env)
	if err != nil {
		return nil, err
	}
	return &System{cfg: cfg, be: be, env: env, adm: be.Admission(env), stepper: st}, nil
}

// stepperFor builds the backend's slice stepper, the step loops' one
// pricing path; a backend without one cannot be simulated.
func stepperFor(be backend.Backend, env *backend.Env) (backend.SliceStepper, error) {
	if inc, ok := be.(backend.Incremental); ok {
		if ss, ok := inc.NewStepper(env).(backend.SliceStepper); ok {
			return ss, nil
		}
	}
	return nil, fmt.Errorf("cluster %s: backend %q has no slice stepper", env.Name, be.Name())
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// Backend returns the system's backend.
func (s *System) Backend() backend.Backend { return s.be }

// FixedAllocator reports whether the backend supplies its own KV
// allocator (the GPU's paged pool), making the static-vs-DPA technique
// toggle inapplicable to this system.
func (s *System) FixedAllocator() bool { return s.adm.NewAllocator != nil }

// tmax is the static reservation length.
func (s *System) tmax() int {
	if s.cfg.TMaxOverride > 0 {
		return s.cfg.TMaxOverride
	}
	return s.cfg.Model.ContextWindow
}

// kvPoolBytes is the system-wide memory available for KV cache: the
// backend's device capacity minus resident weights (unless the backend
// hosts them elsewhere), capped by the configured budget and derated to
// the backend's usable fraction.
func (s *System) kvPoolBytes() (int64, error) {
	capacity := s.be.CapacityBytes(s.env)
	pool := capacity
	if !s.adm.WeightsHosted {
		w := s.cfg.Model.WeightBytes()
		if w >= capacity {
			return 0, fmt.Errorf("cluster %s: weights (%d GiB) exceed capacity (%d GiB)",
				s.cfg.Name, w>>30, capacity>>30)
		}
		pool = capacity - w
	}
	if b := s.cfg.KVBudgetBytes; b > 0 && b < pool {
		pool = b
	}
	if sc := s.adm.PoolScale; sc > 0 && sc != 1 {
		pool = int64(float64(pool) * sc)
	}
	return pool, nil
}

// admitter owns the admission state: the KV allocator, the head-first
// per-channel budget and the FCFS pending queue. With continuous batching
// it also refills the batch when requests complete.
type admitter struct {
	sys        *System
	alloc      memory.Allocator
	headBudget int64
	headUsed   int64
	headNeed   map[int]int64 // per admitted request (for release)
	kvHeads    int
	headFirst  bool // charge the per-channel head budget on admission
	skipUnfit  bool // scan past unfit requests instead of stopping
	pending    []workload.Request
	active     []workload.Request
	// horizon is the token count a request must be able to reach without
	// eviction, used for headroom-aware admission. The batch simulator
	// grows every request through the decode window; the serving engine
	// grows each request to its own generation length.
	horizon func(workload.Request) int
	// admitTokens is the KV size (in tokens) a request occupies at the
	// moment of admission. The default is the prompt context (or the
	// full horizon for upfront-reserving backends); the serving engine
	// overrides it so a preempted request re-admits at its full
	// recomputed KV (context + tokens already generated).
	admitTokens func(workload.Request) int
}

// newAdmitter builds the allocator and admission bookkeeping from the
// backend's admission parameters.
func (s *System) newAdmitter(reqs []workload.Request) (*admitter, error) {
	pool, err := s.kvPoolBytes()
	if err != nil {
		return nil, err
	}
	bpt := s.cfg.Model.KVBytesPerToken()
	newAlloc := s.adm.NewAllocator
	if newAlloc == nil {
		newAlloc = func(pool, bpt int64, tmax int) (memory.Allocator, error) {
			if s.cfg.Tech.DPA {
				return memory.NewDPA(pool, bpt, memory.DefaultChunkBytes)
			}
			return memory.NewStatic(pool, bpt, tmax)
		}
	}
	alloc, err := newAlloc(pool, bpt, s.tmax())
	if err != nil {
		return nil, err
	}
	ad := &admitter{sys: s, alloc: alloc, headNeed: make(map[int]int64), pending: reqs,
		skipUnfit: s.adm.SkipUnfit}
	ad.admitTokens = func(r workload.Request) int { return r.Context }
	if s.adm.ReserveHorizon {
		ad.admitTokens = func(r workload.Request) int { return ad.horizon(r) }
	}
	ad.horizon = func(r workload.Request) int {
		need := r.Context + s.cfg.DecodeWindow
		if !s.adm.UnclampedHorizon && need > s.tmax() {
			need = s.tmax()
		}
		return need
	}
	ad.kvHeads = s.adm.KVHeadsPerModule
	if s.adm.HeadBudget > 0 {
		ad.headFirst = true
		ad.headBudget = s.adm.HeadBudget
	}
	return ad, nil
}

// admitFits is the admission predicate shared by fill and wouldAdmit
// (keeping the two in lockstep is what keeps Leap equivalent to Step):
// whether a pending request can be admitted right now — headroom to
// grow to its horizon without eviction, and under head-first placement
// the per-channel head budget — plus the head-budget charge admission
// would record.
func (a *admitter) admitFits(r workload.Request) (bool, int64) {
	s := a.sys
	need := a.horizon(r)
	if !a.alloc.CanAdmit(need) {
		return false, 0
	}
	var headNeed int64
	if a.headFirst {
		// Static allocation also reserves T_max per channel tile.
		reserve := int64(s.tmax())
		if s.cfg.Tech.DPA {
			reserve = int64(need)
		}
		headNeed = reserve * int64(a.kvHeads)
		if a.headUsed+headNeed > a.headBudget {
			return false, 0
		}
	}
	return true, headNeed
}

// fill admits pending requests FCFS until the head of the queue no longer
// fits (strict in-order admission, as a serving queue would). Backends
// with SkipUnfit admission (the GPU's greedy paged pool) scan past
// requests that do not fit; the skipped requests keep their queue order.
func (a *admitter) fill() {
	s := a.sys
	var skipped []workload.Request
	for len(a.pending) > 0 {
		r := a.pending[0]
		if s.cfg.MaxBatch > 0 && len(a.active) >= s.cfg.MaxBatch {
			break
		}
		fits, headNeed := a.admitFits(r)
		if !fits {
			if a.skipUnfit {
				skipped = append(skipped, r)
				a.pending = a.pending[1:]
				continue
			}
			break
		}
		if err := a.alloc.Admit(r.ID, a.admitTokens(r)); err != nil {
			break
		}
		a.headUsed += headNeed
		a.headNeed[r.ID] = headNeed
		a.active = append(a.active, r)
		a.pending = a.pending[1:]
	}
	if len(skipped) > 0 {
		a.pending = append(skipped, a.pending...)
	}
}

// wouldAdmit reports whether fill would admit at least one pending
// request right now, without admitting it — the serving engine's leap
// gate: a possible admission forces the one-step path. It shares fill's
// admitFits predicate, so the two cannot drift apart (a false negative
// here would break fast-forward equivalence); a request that passes the
// predicate but fails the allocator's Admit merely costs a harmless
// single step.
func (a *admitter) wouldAdmit() bool {
	if len(a.pending) == 0 {
		return false
	}
	if s := a.sys; s.cfg.MaxBatch > 0 && len(a.active) >= s.cfg.MaxBatch {
		return false
	}
	if a.skipUnfit {
		for _, r := range a.pending {
			if fits, _ := a.admitFits(r); fits {
				return true
			}
		}
		return false
	}
	fits, _ := a.admitFits(a.pending[0])
	return fits
}

// isActive reports whether a request is currently admitted (headNeed
// keeps one entry per admitted request, including zero entries under
// TCP, so it doubles as the membership set).
func (a *admitter) isActive(reqID int) bool {
	_, ok := a.headNeed[reqID]
	return ok
}

// requeueFront frees an active request's memory and head budget and
// puts it back at the head of the pending queue — the serving engine's
// preemption path. Unlike release, the request will be re-admitted (and
// its KV recomputed) once capacity frees up.
func (a *admitter) requeueFront(reqID int) error {
	var req workload.Request
	found := false
	for _, r := range a.active {
		if r.ID == reqID {
			req, found = r, true
			break
		}
	}
	if !found {
		return fmt.Errorf("cluster %s: cannot preempt inactive request %d", a.sys.cfg.Name, reqID)
	}
	if err := a.release(reqID); err != nil {
		return err
	}
	a.pending = slices.Insert(a.pending, 0, req)
	return nil
}

// release frees a completed request's memory and head budget.
func (a *admitter) release(reqID int) error {
	if err := a.alloc.Release(reqID); err != nil {
		return err
	}
	a.headUsed -= a.headNeed[reqID]
	delete(a.headNeed, reqID)
	for i, r := range a.active {
		if r.ID == reqID {
			a.active = append(a.active[:i], a.active[i+1:]...)
			break
		}
	}
	return nil
}

// formBatch admits requests against the configured allocator and returns
// the admitter for growth and (optionally) continuous-batching refills.
func (s *System) formBatch(reqs []workload.Request) (*admitter, error) {
	ad, err := s.newAdmitter(reqs)
	if err != nil {
		return nil, err
	}
	ad.fill()
	if len(ad.active) == 0 {
		return nil, fmt.Errorf("cluster %s: no request fits (pool %d GiB, T_max %d)",
			s.cfg.Name, ad.alloc.CapacityBytes()>>30, s.tmax())
	}
	return ad, nil
}

// iterate prices one decode iteration of batch, whose members hold toks
// KV tokens in batch order, through the backend's stepper and accounts
// it on m. Every simulated decode token is tallied for the
// SimulatedTokens rate metric.
func (s *System) iterate(ctx context.Context, m *meter, batch []workload.Request, toks []int) (backend.StepCost, error) {
	simTokens.Add(int64(len(batch)))
	cost, err := s.stepper.StepSlice(ctx, batch, toks)
	if err != nil {
		return cost, err
	}
	s.account(m, cost, len(batch))
	return cost, nil
}

// account accrues one priced iteration of a batch of n on m.
func (s *System) account(m *meter, cost backend.StepCost, n int) {
	m.busy += cost.Stats.Busy
	m.span += cost.Stats.Cycles
	m.channels = cost.Stats.Channels
	ae, fe := s.be.IterEnergy(s.env, cost, n)
	m.attnE.Add(ae)
	m.fcE.Add(fe)
}

// startRun seeds a run over the consecutive iterations of a stable
// batch at KV lengths toks: the stepper's own run when it is a
// backend.RunStepper, otherwise a backend.SliceRun of StepSlice calls.
// The run lives until the next pricing call on this System.
func (s *System) startRun(ctx context.Context, batch []workload.Request, toks []int) (backend.StepRun, error) {
	if rs, ok := s.stepper.(backend.RunStepper); ok {
		return rs.StartRun(ctx, batch, toks)
	}
	if s.adapt == nil {
		s.adapt = &backend.SliceRun{}
	}
	s.adapt.Start(ctx, s.stepper, batch, toks)
	return s.adapt, nil
}

// meter is the per-iteration accounting the batch simulator (RunCtx) and
// the serving Engine share, accrued by iterate: the attention
// utilization inputs and the energy at the priced batch size.
type meter struct {
	busy, span timing.Cycles
	channels   int
	attnE, fcE energy.Breakdown
}

// util is the aggregate MAC-pipeline utilization over the attention
// phase across all channels (the Fig. 4 metric), zero before any PIM
// attention was priced.
func (m *meter) util() float64 {
	if m.span == 0 {
		return 0
	}
	return float64(m.busy) / (float64(m.span) * float64(m.channels))
}

// Run simulates a decode window over the given candidate requests and
// reports throughput, utilization and energy.
func (s *System) Run(reqs []workload.Request) (*Report, error) {
	return s.RunCtx(context.Background(), reqs)
}

// RunCtx is Run with cancellation: the decode loop aborts between
// iterations once ctx is done, so config-grid sweeps can stop early when
// a sibling point fails.
func (s *System) RunCtx(ctx context.Context, reqs []workload.Request) (*Report, error) {
	ad, err := s.formBatch(reqs)
	if err != nil {
		return nil, err
	}
	batch := ad.active
	alloc := ad.alloc
	capUtil := memory.PoolUtilization(alloc)
	if u := s.adm.ReportedUtil; u > 0 {
		capUtil = u
	}
	grown := make(map[int]int, len(batch)) // extra tokens generated so far
	rep := &Report{Config: s.cfg.Name, Backend: s.be.Name(), Batch: len(batch), Steps: s.cfg.DecodeWindow, CapacityUtil: capUtil}
	var m meter
	var totalSec, attnShareAcc float64
	var toks []int
	generated := 0
	stepsRun := 0
	for step := 0; step < s.cfg.DecodeWindow; step++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		toks = toks[:0]
		for _, r := range batch {
			toks = append(toks, r.Context+grown[r.ID])
		}
		cost, err := s.iterate(ctx, &m, batch, toks)
		if err != nil {
			return nil, err
		}
		totalSec += cost.Seconds
		attnShareAcc += cost.AttnShare
		generated += len(batch)
		stepsRun++
		// Advance every request by one generated token, reserving one
		// extra token of headroom.
		for i, r := range batch {
			grown[r.ID]++
			target := toks[i] + 2
			if s.adm.ReserveHorizon {
				// The full horizon is already reserved upfront; growth
				// needs no extra headroom and stops at the reservation
				// edge instead of probing past it.
				if h := ad.horizon(r); target > h {
					target = h
				}
			}
			if err := alloc.Grow(r.ID, target); err != nil {
				// Out of headroom: freeze this request's growth (the real
				// system would evict; the window is short enough not to).
				grown[r.ID]--
			}
		}
		// Continuous batching: retire finished requests and refill FCFS.
		// (Collect first: release mutates the active slice batch aliases.)
		if s.cfg.ContinuousBatching {
			var done []int
			for _, r := range batch {
				if r.Decode > 0 && grown[r.ID] >= r.Decode {
					done = append(done, r.ID)
				}
			}
			for _, id := range done {
				if err := ad.release(id); err != nil {
					return nil, err
				}
			}
			ad.fill()
			batch = ad.active
			if len(batch) > rep.Batch {
				rep.Batch = len(batch)
			}
			if len(batch) == 0 {
				break
			}
		}
	}
	rep.Steps = stepsRun
	rep.TotalSeconds = totalSec
	rep.Throughput = float64(generated) / totalSec
	if stepsRun > 0 {
		rep.AttnTimeShare = attnShareAcc / float64(stepsRun)
		rep.TBTSeconds = totalSec / float64(stepsRun)
	}
	rep.PIMUtil = m.util()
	rep.AttnEnergy, rep.FCEnergy = m.attnE, m.fcE
	return rep, nil
}

// Sweep builds one System per configuration and runs each against the
// shared (read-only) candidate pool, fanning the independent simulations
// through the sweep engine. Reports come back in input order; the first
// failing configuration cancels the rest.
func Sweep(ctx context.Context, cfgs []Config, reqs []workload.Request, opts ...sweep.Option) ([]*Report, error) {
	return sweep.Run(ctx, cfgs, func(ctx context.Context, cfg Config) (*Report, error) {
		sys, err := New(cfg)
		if err != nil {
			return nil, err
		}
		return sys.RunCtx(ctx, reqs)
	}, opts...)
}

// PrefillSeconds estimates the prompt-processing time of one request at
// the given context length. Prefill is the compute-bound phase (batched
// GEMM over all prompt tokens plus causal attention, quadratic in the
// context), so it runs on the backend's dense engine: the per-module PNM
// for PIM-only systems (their known weakness — the motivation for
// GPU/NPU prefill offload in Hybe and NeuPIMs), the NPU for xPU+PIM, the
// host GPU for DIMM-PIM, and the GPU itself for the baseline.
func (s *System) PrefillSeconds(context int) float64 {
	return s.be.PrefillSeconds(s.env, context)
}

// CostPerHour is the amortised provisioning cost of this system in
// dollars per hour (hardware capital plus hosting, excluding modeled
// device energy) — the backend's order-of-magnitude rate for the
// configured module/device counts. Serving reports multiply it by the
// seconds a replica was provisioned to price goodput per dollar.
func (s *System) CostPerHour() float64 {
	return s.be.CostPerHour(s.env)
}
