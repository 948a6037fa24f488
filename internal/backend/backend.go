// Package backend defines the pluggable system-backend seam of the
// cluster simulator: one Backend per system organisation (CENT-style
// PIM-only, NeuPIMs-style xPU+PIM, the A100 GPU baseline, and an
// L3/LoL-PIM-style DIMM-PIM system), each pricing the per-step phases of
// a decode iteration — FC projections, attention, collective
// communication — and declaring its KV-capacity geometry and admission
// semantics. The step loop in internal/cluster (both the batch simulator
// and the serving engine) is backend-agnostic: it admits against the
// backend's Admission parameters, prices every iteration through the
// StepSlice entry point of the backend's stepper (Incremental, which
// every backend implements), and accrues energy through
// Backend.IterEnergy. Each backend has one pricing implementation: its
// Step is a one-shot stepper. Adding a new system organisation is one
// Register call; no step-loop fork.
package backend

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"pimphony/internal/energy"
	"pimphony/internal/hub"
	"pimphony/internal/memory"
	"pimphony/internal/model"
	"pimphony/internal/perfmodel"
	"pimphony/internal/timing"
	"pimphony/internal/workload"
)

// Technique toggles PIMphony's three co-designed techniques.
type Technique struct {
	TCP bool // token-centric partitioning (vs head-first)
	DCS bool // dynamic command scheduling + I/O-aware buffering (vs static)
	DPA bool // dynamic PIM access / lazy KV allocation (vs T_max reservation)
}

// Baseline is the all-off configuration.
func Baseline() Technique { return Technique{} }

// PIMphony is the all-on configuration.
func PIMphony() Technique { return Technique{TCP: true, DCS: true, DPA: true} }

// Registered backend names. The constants double as the Config.Backend
// values the cluster package accepts.
const (
	PIMOnly = "pim-only"
	XPUPIM  = "xpu+pim"
	GPU     = "gpu"
	DIMMPIM = "dimm-pim"
)

// Env is the per-system context a backend prices against: the relevant
// configuration subset plus the memoized pricing services the owning
// cluster.System builds once.
type Env struct {
	// Name is the owning configuration's name, used in error messages.
	Name string
	// Dev is the PIM module geometry (zero-valued for backends without
	// PIM modules, e.g. the GPU baseline).
	Dev timing.Device
	// Modules, TP, PP describe the module count and its parallelism
	// split; GPUs is the device count of GPU configurations.
	Modules, TP, PP, GPUs int
	Model                 model.Config
	Tech                  Technique
	// RowReuse applies the row-reuse KV mapping (Sec. V-C).
	RowReuse bool
	// Perf and Hub are the memoized channel-latency service and the HUB
	// model; EMod prices energy. They are nil/zero in validation-only
	// environments.
	Perf *perfmodel.Service
	Hub  *hub.Hub
	EMod energy.Model

	// fcE memoizes the FC half of iterEnergy by micro-batch size: it is
	// a pure function of the model and batch, but recomputing it walked
	// the FC shape list on every decode iteration — the single hottest
	// line of the serving fast-forward loop. An Env is single-goroutine
	// like the stepper it rides with, so a plain slice suffices.
	fcE   []energy.Breakdown
	fcEOK []bool
}

// Stats aggregates the PIM-channel attention counters of one priced
// iteration: the utilization and energy inputs the step loop accrues.
// Zero-valued for backends without PIM channels.
type Stats struct {
	Cycles   timing.Cycles // critical-path attention cycles
	Busy     timing.Cycles // aggregate MAC-busy cycles across channels
	MACs     int64
	IOBytes  int64
	ActPre   int64
	Channels int
}

// StepCost is the price of one decode iteration for a batch.
type StepCost struct {
	// Seconds is the iteration time.
	Seconds float64
	// AttnShare is the attention fraction of iteration time.
	AttnShare float64
	// Stats carries the PIM attention counters (zero for non-PIM
	// backends).
	Stats Stats
}

// TokensOf resolves a request's current KV length (prompt context plus
// tokens generated so far).
type TokensOf func(workload.Request) int

// Admission describes how the cluster admitter treats this backend:
// pool geometry, queue semantics and the allocator that tracks KV
// reservations.
type Admission struct {
	// PoolScale derates the post-weights KV pool to the usable fraction
	// (the GPU's paged-attention efficiency); <= 0 or 1 leaves the pool
	// untouched, with no float round trip.
	PoolScale float64
	// WeightsHosted marks backends whose weights live outside the KV
	// pool (the DIMM-PIM host keeps them in its own HBM), so the whole
	// device capacity serves KV and no weights-fit check applies.
	WeightsHosted bool
	// SkipUnfit scans past queued requests that do not fit instead of
	// stopping at the queue head — the GPU's paged pool packs greedily.
	SkipUnfit bool
	// ReserveHorizon admits a request at its full admission horizon
	// (upfront paged reservation) rather than its current context.
	ReserveHorizon bool
	// UnclampedHorizon leaves the admission horizon at context+window
	// even past T_max (the GPU reserves exactly what the decode window
	// will touch).
	UnclampedHorizon bool
	// HeadBudget bounds head-first placement: total (request, KV head)
	// tile tokens that fit per module under per-channel capacity. Zero
	// disables the bound (TCP, or backends without channel placement).
	HeadBudget int64
	// KVHeadsPerModule is the per-request head-tile count charged
	// against HeadBudget.
	KVHeadsPerModule int
	// ReportedUtil, when positive, overrides the batch Report's
	// CapacityUtil (the GPU reports its paged-attention efficiency
	// rather than pool fill).
	ReportedUtil float64
	// NewAllocator builds the KV allocator for a pool. Nil selects the
	// technique default: DPA chunks when Tech.DPA, static T_max
	// reservation otherwise.
	NewAllocator func(pool, bytesPerToken int64, tmax int) (memory.Allocator, error)
}

// Backend prices one system organisation. Implementations must be
// stateless (shared across Systems and goroutines); all per-system
// state lives in the Env.
type Backend interface {
	// Name is the registry key and the Report's system label.
	Name() string
	// Describe is the one-line summary CLI -list flags print.
	Describe() string
	// PIMAttention reports whether attention executes on PIM channels,
	// i.e. whether the compiler / on-module dispatcher path applies.
	PIMAttention() bool
	// Validate checks the backend-specific parts of a configuration.
	Validate(env *Env) error
	// CapacityBytes is the total device memory across the system
	// (weights + KV unless Admission.WeightsHosted).
	CapacityBytes(env *Env) int64
	// Admission returns the admitter parameters for this backend.
	Admission(env *Env) Admission
	// Step prices one decode iteration over the active batch.
	Step(ctx context.Context, env *Env, batch []workload.Request, tokensOf TokensOf) (StepCost, error)
	// IterEnergy prices one iteration's attention and FC energy from a
	// Step's cost.
	IterEnergy(env *Env, cost StepCost, batch int) (attn, fc energy.Breakdown)
	// PrefillSeconds estimates prompt processing on the backend's dense
	// engine.
	PrefillSeconds(env *Env, context int) float64
	// CostPerHour is the amortised provisioning cost of one replica of
	// this system in dollars per hour — hardware capital spread over its
	// service life plus hosting, excluding the modeled device energy
	// (which serving reports price separately at the grid rate). Values
	// are order-of-magnitude; the reproduced metric is the cost ratio
	// between system organisations, not a market quote.
	CostPerHour(env *Env) float64
}

var (
	regMu    sync.RWMutex
	registry = map[string]Backend{}
)

// Register adds a backend under its Name; duplicate names panic (the
// registry is populated from init functions, where a collision is a
// programming error).
func Register(b Backend) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[b.Name()]; dup {
		panic(fmt.Sprintf("backend: duplicate registration of %q", b.Name()))
	}
	registry[b.Name()] = b
}

// Lookup resolves a backend by registry name. The empty name resolves
// to the PIM-only backend, the historical default system organisation.
func Lookup(name string) (Backend, error) {
	if name == "" {
		name = PIMOnly
	}
	regMu.RLock()
	b, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("backend: unknown system backend %q (known: %v)", name, Names())
	}
	return b, nil
}

// Names returns the registered backend names in sorted order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
