// Package perfmodel turns kernel shapes into channel latencies: it builds
// the periodic command program for a kernel (internal/kernels), schedules
// it under the selected controller (internal/sched) and memoizes the
// result.
//
// What is exact: a cold simulation. The builders fold each attention
// loop's steady state into a repeated body and the controllers skip whole
// periods once their state repeats, and both steps reproduce the
// command-by-command simulation's cycles, breakdown and counts exactly,
// in time proportional to the kernel's period rather than its length.
//
// What is approximate: the token count a simulation is run for. Long-
// context sweeps query millions of nearly identical shapes (token counts
// grow by one per decode step), so attention token counts are quantized
// to 32 logarithmically spaced buckets per octave, capped at
// maxAttnSimTokens, and the simulated latency is scaled linearly to the
// exact token count. Attention kernels are linear in tokens beyond the
// fixed query-setup work, which keeps that error small.
package perfmodel

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"pimphony/internal/kernels"
	"pimphony/internal/pim"
	"pimphony/internal/sched"
	"pimphony/internal/timing"
)

// Kernel enumerates the kernels the service can price.
type Kernel uint8

const (
	// QKT is the attention score kernel.
	QKT Kernel = iota
	// SV is the attention value-aggregation kernel.
	SV
	// GEMV is a fully-connected kernel.
	GEMV
)

// String implements fmt.Stringer.
func (k Kernel) String() string {
	switch k {
	case QKT:
		return "qkt"
	case SV:
		return "sv"
	case GEMV:
		return "gemv"
	default:
		return fmt.Sprintf("Kernel(%d)", uint8(k))
	}
}

// Sched selects the controller.
type Sched uint8

const (
	// Static is the conventional in-order controller.
	Static Sched = iota
	// PingPong is the dual-buffering baseline.
	PingPong
	// DCS is PIMphony's dynamic scheduler.
	DCS
	// DCSNoIsMAC is DCS with the is-MAC bypass disabled (ablation).
	DCSNoIsMAC
)

// String implements fmt.Stringer.
func (s Sched) String() string {
	switch s {
	case Static:
		return "static"
	case PingPong:
		return "pingpong"
	case DCS:
		return "dcs"
	case DCSNoIsMAC:
		return "dcs-no-ismac"
	default:
		return fmt.Sprintf("Sched(%d)", uint8(s))
	}
}

// Query is one kernel-latency request. For attention kernels Tokens is the
// per-channel token count and Dh the head dimension; for GEMV Tokens is the
// input dimension and Dh the output dimension.
type Query struct {
	Kernel   Kernel
	Tokens   int
	Dh       int
	Queries  int
	RowReuse bool
	Baseline bool // baseline OutReg geometry instead of PIMphony's OBuf
	Sched    Sched
}

// Latency is the priced result, linearly rescaled to the exact token count.
type Latency struct {
	Cycles    timing.Cycles
	Breakdown sched.Breakdown
	MACUtil   float64
	MACs      int64
	IOBytes   int64
	ActPre    int64
}

// Service memoizes kernel latencies for one device. The cache is guarded
// by an RWMutex so concurrent sweeps sharing a Service stop serializing
// on cache hits — the hit path takes only the read lock.
type Service struct {
	dev timing.Device

	mu    sync.RWMutex
	cache map[Query]Latency
	// Misses counts cold simulations (observability for tests/benches).
	misses int
	// lookups counts Price cache consultations. The serving engine's
	// step-cost memoization is judged by how few of these a run needs —
	// the pre-memoization step loop consulted the cache once per
	// (channel, kernel) work unit per decode iteration.
	lookups atomic.Int64
	// scheduled counts the commands the scheduling engine issued one by
	// one on misses: the cycle-level simulation's work, which the period
	// skip keeps far below the commands the misses' programs expand to.
	scheduled atomic.Int64
}

// New creates a latency service.
func New(dev timing.Device) *Service {
	return &Service{dev: dev, cache: make(map[Query]Latency)}
}

var (
	sharedMu sync.Mutex
	shared   = map[timing.Device]*Service{}
)

// Shared returns the process-wide latency service for a device. Kernel
// latencies are a pure function of the device geometry and the query,
// so every simulator instance pricing against the same device can share
// one memoized cache: a config-grid sweep then pays each cold
// simulation once per process instead of once per grid point, and the
// RWMutex hit path keeps concurrent sweep workers from serializing on
// the shared cache.
func Shared(dev timing.Device) *Service {
	sharedMu.Lock()
	defer sharedMu.Unlock()
	s, ok := shared[dev]
	if !ok {
		s = New(dev)
		shared[dev] = s
	}
	return s
}

// CacheMisses reports how many cold simulations ran.
func (s *Service) CacheMisses() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.misses
}

// CacheLookups reports how many Price calls consulted the cache (hits
// and misses alike).
func (s *Service) CacheLookups() int64 { return s.lookups.Load() }

// CommandsScheduled reports how many commands the scheduling engine
// issued one by one across all misses (skipped periods excluded).
func (s *Service) CommandsScheduled() int64 { return s.scheduled.Load() }

// quantize rounds tokens up so at most 32 buckets exist per octave, bounding
// both cache size and scaling error (< ~3%).
func quantize(tokens int) int {
	if tokens <= 64 {
		return tokens
	}
	step := 1
	for tokens>>5 >= step<<1 {
		step <<= 1
	}
	return (tokens + step - 1) / step * step
}

// maxAttnSimTokens caps the per-channel token count that is simulated;
// longer slices are priced at the cap and scaled linearly, as are counts
// inside a quantization bucket. The simulation itself is exact at any
// length (the period skip makes its cost independent of the length past
// a few periods), so the cap and the bucket rescale are now the model's
// only approximation of a shape's latency: linear scaling ignores the
// fixed setup and tail work, and float truncation moves results by a
// cycle or so.
const maxAttnSimTokens = 1 << 16

// Bucket returns the quantization bucket an attention token count is
// priced from: the quantized (and simulation-capped) token count whose
// cold simulation Price scales linearly to the exact count. Two token
// counts share a bucket exactly when they are priced from the same
// cached simulation — the invariant the serving engine's step-cost
// memoization keys on. GEMV shapes are not quantized and have no bucket.
func Bucket(tokens int) int {
	if tokens >= maxAttnSimTokens {
		return maxAttnSimTokens
	}
	q := quantize(tokens)
	if q > maxAttnSimTokens {
		q = maxAttnSimTokens
	}
	return q
}

// BucketEnd returns the largest token count sharing tokens' quantization
// bucket — the event horizon after which a growing attention shape needs
// a different cached simulation. Quantization rounds up to a multiple of
// the octave step, so the bucket value itself is the boundary; past the
// simulation cap every count scales from the capped simulation, making
// the final bucket unbounded (math.MaxInt).
func BucketEnd(tokens int) int {
	b := Bucket(tokens)
	if b >= maxAttnSimTokens {
		return math.MaxInt
	}
	return b
}

// Price returns the latency of a kernel query.
func (s *Service) Price(q Query) (Latency, error) {
	if q.Tokens <= 0 || q.Dh <= 0 {
		return Latency{}, fmt.Errorf("perfmodel: non-positive shape %+v", q)
	}
	if q.Queries <= 0 {
		q.Queries = 1
	}
	exact := q.Tokens
	if q.Kernel != GEMV {
		q.Tokens = quantize(q.Tokens)
		if q.Tokens > maxAttnSimTokens {
			q.Tokens = maxAttnSimTokens
		}
	}
	s.lookups.Add(1)
	s.mu.RLock()
	lat, ok := s.cache[q]
	s.mu.RUnlock()
	if !ok {
		var err error
		lat, err = s.simulate(q)
		if err != nil {
			return Latency{}, err
		}
		s.mu.Lock()
		if prior, dup := s.cache[q]; dup {
			lat = prior // a racing goroutine cached the same shape first
		} else {
			s.cache[q] = lat
			s.misses++
		}
		s.mu.Unlock()
	}
	if q.Kernel != GEMV && exact != q.Tokens {
		f := float64(exact) / float64(q.Tokens)
		lat = scale(lat, f)
	}
	return lat, nil
}

func scale(l Latency, f float64) Latency {
	return Latency{
		Cycles: timing.Cycles(float64(l.Cycles) * f),
		Breakdown: sched.Breakdown{
			MAC:      timing.Cycles(float64(l.Breakdown.MAC) * f),
			ActPre:   timing.Cycles(float64(l.Breakdown.ActPre) * f),
			Refresh:  timing.Cycles(float64(l.Breakdown.Refresh) * f),
			DTGBuf:   timing.Cycles(float64(l.Breakdown.DTGBuf) * f),
			DTOutReg: timing.Cycles(float64(l.Breakdown.DTOutReg) * f),
			Penalty:  timing.Cycles(float64(l.Breakdown.Penalty) * f),
		},
		MACUtil: l.MACUtil,
		MACs:    int64(float64(l.MACs) * f),
		IOBytes: int64(float64(l.IOBytes) * f),
		ActPre:  int64(float64(l.ActPre) * f),
	}
}

// programPool holds the command programs cold simulations build into.
// Price runs on parallel sweep workers, so each simulation takes its own
// program for the duration of the call; a warm program already has the
// capacity of the largest prologue it held.
var programPool = sync.Pool{New: func() any { return new(pim.Program) }}

func (s *Service) simulate(q Query) (Latency, error) {
	var buf kernels.Buffers
	if q.Baseline {
		buf = kernels.BaselineBuffers(s.dev)
	} else {
		buf = kernels.OBufBuffers(s.dev)
	}
	kc := kernels.NewConfig(s.dev, buf)
	prog := programPool.Get().(*pim.Program)
	defer programPool.Put(prog)
	var err error
	switch q.Kernel {
	case QKT:
		err = kc.QKT(prog, q.Tokens, q.Dh, q.Queries, q.RowReuse)
	case SV:
		err = kc.SV(prog, q.Tokens, q.Dh, q.Queries, q.RowReuse)
	case GEMV:
		err = kc.GEMV(prog, q.Tokens, q.Dh)
	default:
		return Latency{}, fmt.Errorf("perfmodel: unknown kernel %d", q.Kernel)
	}
	if err != nil {
		return Latency{}, err
	}
	var scheduler sched.Scheduler
	switch q.Sched {
	case Static:
		scheduler = &sched.Static{Dev: s.dev}
	case PingPong:
		scheduler = &sched.PingPong{Dev: s.dev}
	case DCS:
		scheduler = &sched.DCS{Dev: s.dev}
	case DCSNoIsMAC:
		scheduler = &sched.DCS{Dev: s.dev, DisableIsMAC: true}
	default:
		return Latency{}, fmt.Errorf("perfmodel: unknown scheduler %d", q.Sched)
	}
	res, err := scheduler.Schedule(prog)
	if err != nil {
		return Latency{}, err
	}
	s.scheduled.Add(int64(res.Scheduled))
	st := kernels.StackStats(prog)
	return Latency{
		Cycles:    res.Total,
		Breakdown: res.Breakdown,
		MACUtil:   res.MACUtilization(),
		MACs:      int64(st.Mac),
		IOBytes:   int64(st.WrInp+st.RdOut) * int64(s.dev.TileBytes),
		ActPre:    int64(st.Act),
	}, nil
}

// AttentionLatency prices a full per-channel attention slice: QK^T plus SV
// for the given per-channel token count.
func (s *Service) AttentionLatency(tokens, dh, queries int, rowReuse, baseline bool, sc Sched) (Latency, error) {
	qkt, err := s.Price(Query{Kernel: QKT, Tokens: tokens, Dh: dh, Queries: queries, RowReuse: rowReuse, Baseline: baseline, Sched: sc})
	if err != nil {
		return Latency{}, err
	}
	sv, err := s.Price(Query{Kernel: SV, Tokens: tokens, Dh: dh, Queries: queries, RowReuse: rowReuse, Baseline: baseline, Sched: sc})
	if err != nil {
		return Latency{}, err
	}
	sum := qkt
	sum.Cycles += sv.Cycles
	sum.Breakdown.Add(sv.Breakdown)
	sum.MACs += sv.MACs
	sum.IOBytes += sv.IOBytes
	sum.ActPre += sv.ActPre
	if sum.Cycles > 0 {
		sum.MACUtil = float64(sum.Breakdown.MAC) / float64(sum.Cycles)
	}
	return sum, nil
}
