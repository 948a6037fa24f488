// Package serve is the online serving simulator: it feeds a timed
// arrival stream (internal/workload's Poisson or trace-replay schedules)
// into one or more continuous-batching decode replicas (cluster.Engine),
// routes each arrival through a pluggable load-balancing policy, and
// reports the SLO metrics a serving system is judged on — TTFT, TBT and
// end-to-end latency at p50/p95/p99, plus goodput (decode tokens per
// second from requests that met the SLO).
//
// The simulation is a discrete-event simulation on the shared spine
// (des.go): each replica advances its own clock by the duration of its
// decode iterations, and an arrival is routed only after every replica
// whose state the policy observes has simulated up to the arrival time
// — all of them for a load-aware policy, only the destination for a
// LoadOblivious one. Between events a replica does not step one
// iteration at a time — cluster.Engine.Leap fast-forwards a stable
// batch through its analytically computed event horizon in one call,
// and independent replicas advance concurrently through
// internal/sweep — but every optimization is exact: every per-token timestamp, and therefore
// every report, is bit-identical to the naive single-stepped
// sequential loop (Config.SingleStep pins this in tests). Everything
// is deterministic — same arrival schedule, same configuration, same
// report — which is what lets the latency–throughput tables in CI be
// byte-identical at any sweep parallelism.
//
// Metric definitions (all per request, in seconds):
//
//   - TTFT (time to first token): from arrival to the end of the first
//     decode iteration that includes the request, i.e. queueing delay +
//     one iteration; with Config.IncludePrefill it also adds the prompt
//     prefill time on the system's dense engine.
//   - TBT (time between tokens): the request's mean gap between
//     subsequent tokens, (completion - first token) / (tokens - 1),
//     over the tokens actually generated (a request whose KV cache hits
//     the context window is truncated, like a real serving system).
//   - E2E: from arrival to completion of the last token.
//   - Goodput: decode tokens of SLO-compliant requests / makespan,
//     where makespan runs from the first arrival to the last completion.
package serve

import (
	"context"
	"fmt"
	"math"

	"pimphony/internal/cluster"
	"pimphony/internal/energy"
	"pimphony/internal/timing"
	"pimphony/internal/workload"
)

// SLO is the latency target a request must meet to count toward
// goodput. Zero fields are not enforced.
type SLO struct {
	TTFT float64 // seconds from arrival to first token
	TBT  float64 // seconds between subsequent tokens (per-request mean)
}

// Met reports whether a request's latencies satisfy the SLO.
func (s SLO) Met(ttft, tbt float64) bool {
	if s.TTFT > 0 && ttft > s.TTFT {
		return false
	}
	if s.TBT > 0 && tbt > s.TBT {
		return false
	}
	return true
}

// Config describes one serving simulation.
type Config struct {
	// System is the replica template; every replica is an independent
	// cluster.System built from it. Every registered backend is
	// servable — PIM systems admit against their static/DPA allocator,
	// the GPU baseline against its paged pool (see
	// cluster.System.NewEngine).
	System cluster.Config
	// Replicas is the number of identical decode engines behind the
	// load balancer (>= 1).
	Replicas int
	// Policy routes arrivals to replicas. Each Run needs a fresh
	// instance (policies may keep state).
	Policy Policy
	// SLO classifies completed requests for the goodput metric.
	SLO SLO
	// IncludePrefill adds each request's prompt-processing time on the
	// system's dense engine (cluster.System.PrefillSeconds) to its TTFT
	// and E2E. The prefill is modelled as offloaded — it delays the
	// request's tokens but does not occupy the decode engine, the
	// disaggregation NeuPIMs and Hybe argue for.
	IncludePrefill bool
	// SingleStep forces the one-iteration-per-call engine path instead
	// of multi-step fast-forward (cluster.Engine.Leap). Reports are
	// identical either way — the fast-forward equivalence tests pin that
	// — so the knob exists for those tests and for debugging; production
	// runs leave it off and simulate the same traffic many times faster.
	SingleStep bool

	// Fleet, when non-empty, switches Run to the heterogeneous fleet
	// simulator: replicas are built from these specs (each with its own
	// backend, allocator technique and KV budget) instead of Replicas
	// copies of System, prefill and decode can run on different
	// replicas with an explicitly priced KV-transfer hop, and the
	// global scheduler (Placement, Migrate, Steal) replaces Policy.
	// System, Replicas, Policy and IncludePrefill are ignored in fleet
	// mode; see fleet.go.
	Fleet []ReplicaSpec
	// Interconnect prices every inter-replica KV movement in fleet mode
	// (prefill→decode handoffs, migrations, steals). The zero value is
	// an unusable fabric: fine for unified fleets (KV stays local and
	// migration/stealing simply never win), an error for disaggregated
	// ones (handoffs need a link).
	Interconnect timing.Interconnect
	// Placement places decode work on fleet replicas against fleet-wide
	// KV headroom (nil = KVHeadroom()). Fleet mode only. Like Policy,
	// each Run needs a fresh instance.
	Placement Placement
	// Migrate lets the fleet scheduler move a preempted request's KV to
	// another replica when the transfer is cheaper than the recompute
	// its re-admission would charge. Fleet mode only.
	Migrate bool
	// Steal lets idle decode replicas take queued zero-progress
	// requests from the most backlogged replica (prompt KV moves over
	// the interconnect). Fleet mode only.
	Steal bool
	// Autoscaler, when non-nil, lets the fleet's global scheduler grow
	// and shrink the online decode-replica set while the run plays out:
	// each spec starts with Min replicas online, the rest standby, and
	// scale-ups pay the spec's WarmupSeconds (see autoscale.go). Fleet
	// mode only; nil keeps every replica online for the whole run. Like
	// Policy, each Run needs a fresh instance.
	Autoscaler Autoscaler
	// LeapHorizon caps iterations per engine leap in fleet mode (0 =
	// unbounded: a leap stops only at its engine's own events and the
	// next global event). Fleet mode only. Reports are identical at any
	// value; only simulation granularity changes.
	LeapHorizon int
	// Faults injects deterministic replica failures — crashes, transient
	// slowdowns, interconnect degradation — compiled into explicit heap
	// events (see faults.go). Fleet mode only; nil or an empty plan
	// reproduces the fault-free run byte-for-byte.
	Faults *FaultPlan
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if len(c.Fleet) > 0 {
		return c.validateFleet()
	}
	switch {
	case c.Replicas <= 0:
		return fmt.Errorf("serve: Replicas must be positive, got %d", c.Replicas)
	case c.Policy == nil:
		return fmt.Errorf("serve: Policy is required")
	case c.Autoscaler != nil:
		return fmt.Errorf("serve: Autoscaler requires fleet mode (set Fleet specs)")
	case c.Faults.active():
		return fmt.Errorf("serve: Faults require fleet mode (set Fleet specs)")
	case c.Placement != nil:
		return fmt.Errorf("serve: Placement requires fleet mode (set Fleet specs); classic mode routes with Policy")
	case c.Migrate:
		return fmt.Errorf("serve: Migrate requires fleet mode (set Fleet specs)")
	case c.Steal:
		return fmt.Errorf("serve: Steal requires fleet mode (set Fleet specs)")
	case c.LeapHorizon != 0:
		return fmt.Errorf("serve: LeapHorizon requires fleet mode (set Fleet specs)")
	}
	return nil
}

// Quantiles summarises one latency distribution.
type Quantiles struct {
	Mean, P50, P95, P99 float64
}

// quantiles computes nearest-rank percentiles over a sample, sorting xs
// in place (radix, O(len(xs))). tmp is optional scratch for the sort,
// reusable across calls; the mean accumulates in ascending order,
// exactly as the sort-then-sum fold it replaces.
func quantiles(xs, tmp []float64) Quantiles {
	if len(xs) == 0 {
		return Quantiles{}
	}
	radixSortFloat64(xs, tmp)
	var sum float64
	for _, x := range xs {
		sum += x
	}
	rank := func(p float64) float64 {
		i := int(math.Ceil(p*float64(len(xs)))) - 1
		if i < 0 {
			i = 0
		}
		return xs[i]
	}
	return Quantiles{Mean: sum / float64(len(xs)), P50: rank(0.50), P95: rank(0.95), P99: rank(0.99)}
}

// ReplicaStats is one replica's share of the work.
type ReplicaStats struct {
	Requests    int
	Tokens      int
	Steps       int
	BusySeconds float64
	// Utilization is the replica's PIM MAC utilization over its
	// attention phases.
	Utilization float64
	// MaxActive is the replica's largest concurrent admitted batch.
	MaxActive int
	// Preemptions counts requests evicted back to the queue when DPA
	// lazy growth exhausted the replica's pool mid-decode.
	Preemptions int
	// BlockedSeconds is decode time spent with at least one request
	// waiting in the queue (admission-blocked on KV capacity).
	BlockedSeconds float64
	// RecomputeSeconds is KV-rebuild time charged for re-admitting
	// preempted requests.
	RecomputeSeconds float64
	// PeakLiveBytes / PeakReservedBytes are the replica allocator's
	// high-water marks: bytes holding actual KV data vs bytes
	// unavailable to other requests (T_max reservations or DPA chunks).
	PeakLiveBytes     int64
	PeakReservedBytes int64
}

// CapacityStats aggregates the KV-capacity behaviour of one serving run
// — the online counterpart of the paper's Fig. 19 pool-utilization
// study, comparing what an allocation scheme reserved against what it
// actually used while admission and preemption played out.
type CapacityStats struct {
	// Alloc is the KV allocation scheme ("static" or "dpa").
	Alloc string
	// PoolBytes is the per-replica KV capacity budget.
	PoolBytes int64
	// PeakLiveBytes / PeakReservedBytes are the maxima across replicas.
	PeakLiveBytes     int64
	PeakReservedBytes int64
	// MaxActive is the largest concurrent admitted batch on any replica
	// — static T_max reservations cap this well below DPA at an equal
	// budget.
	MaxActive int
	// Preemptions and BlockedSeconds / RecomputeSeconds are summed
	// across replicas.
	Preemptions      int
	BlockedSeconds   float64
	RecomputeSeconds float64
}

// EnergyStats prices one serving run: the modeled device energy of the
// decode replicas and the provisioning cost of everything that was kept
// online, folded into the per-token production metrics (joules/token,
// cost/Mtok, goodput per dollar). Energy comes from the backends'
// module model (internal/energy; the GPU baseline prices no module
// energy, so its joules are zero by construction) and is charged at the
// grid electricity rate; provisioning comes from each replica's
// System.CostPerHour times the seconds it was online — which is where
// an autoscaled fleet earns its keep against a fixed one.
type EnergyStats struct {
	// DecodeJoules is the modeled decode energy across replicas, in
	// joules.
	DecodeJoules float64
	// JoulesPerToken is DecodeJoules per generated token (zero for
	// backends without an energy model).
	JoulesPerToken float64
	// ReplicaSeconds is the total decode-replica online time: replicas x
	// makespan for a fixed fleet, the provision-to-drain integral for an
	// autoscaled one.
	ReplicaSeconds float64
	// ProvisionDollars charges ReplicaSeconds (plus any dedicated
	// prefill servers, kept online for the whole run) at each replica's
	// CostPerHour; EnergyDollars charges DecodeJoules at the grid rate;
	// Dollars is their sum.
	ProvisionDollars float64
	EnergyDollars    float64
	Dollars          float64
	// CostPerMTok is Dollars per million generated tokens.
	CostPerMTok float64
	// GoodTokensPerDollar is the run's production metric: SLO-compliant
	// tokens per dollar spent.
	GoodTokensPerDollar float64
}

// Report is the outcome of one serving simulation.
type Report struct {
	Policy   string
	Replicas int
	// Requests is the number of requests served to completion (every
	// arrival, unless the simulation errored).
	Requests int
	// OfferedRate is the arrival schedule's empirical requests/second.
	OfferedRate float64
	// MakespanSeconds runs from the first arrival to the last
	// completion.
	MakespanSeconds float64
	// Throughput is decode tokens per second of makespan.
	Throughput float64
	// Goodput is decode tokens per second of makespan produced by
	// SLO-compliant requests (the LoL-PIM-style serving metric).
	Goodput float64
	// SLOMet is the fraction of requests that met the SLO.
	SLOMet float64
	// Tokens / GoodTokens are the generated decode tokens in total and
	// from SLO-compliant requests (the numerators of Throughput and
	// Goodput).
	Tokens, GoodTokens int
	// Latency distributions across completed requests.
	TTFT, TBT, E2E Quantiles
	// Capacity aggregates the KV-allocator behaviour across replicas.
	Capacity CapacityStats
	// Energy prices the run: modeled joules/token plus provisioning and
	// electricity dollars (see EnergyStats).
	Energy EnergyStats
	// PerReplica breaks the work down by replica.
	PerReplica []ReplicaStats
	// Fleet carries the fleet-mode extras — roles, transfer accounting,
	// scheduler actions, joules/token — and is nil for the load-balanced
	// path.
	Fleet *FleetStats
	// Faults carries the failure-and-recovery accounting — crashes,
	// retries, permanently failed requests, lost KV, downtime — and is
	// nil unless the run injected faults (see faults.go).
	Faults *FaultStats
}

// sim is the load-balanced path on the discrete-event spine: identical
// replicas, a Policy routing arrivals, and a synchronization discipline
// chosen by what the policy observes — a load-aware policy needs every
// replica advanced to the arrival time (syncBarrier), a LoadOblivious
// one only the destination (syncLazy).
type sim struct {
	spine
	cfg  Config
	lazy bool
	// loads is the per-arrival snapshot buffer, reused across dispatches
	// (valid only during the Policy.Pick call; in lazy mode it stays
	// zeroed, matching the empty snapshot LoadOblivious policies see).
	loads []Load
}

// onStep and idleWork are no-ops: the load balancer reacts to nothing
// between arrivals, and a drained schedule leaves no deferred work.
func (s *sim) onStep(int, cluster.StepResult) error { return nil }
func (s *sim) react(float64) error                  { return nil }
func (s *sim) idleWork() (bool, error)              { return false, nil }

// dispatch routes one arrival: snapshot every replica's load (barrier
// mode — the spine has already advanced them all to e.at) or none of
// them (lazy mode — only the destination is advanced, here), ask the
// Policy, and enqueue.
func (s *sim) dispatch(ctx context.Context, e *event) error {
	loads := s.loads
	if !s.lazy {
		for j, r := range s.replicas {
			loads[j] = Load{
				OutstandingTokens: r.eng.OutstandingTokens(),
				Active:            r.eng.Active(),
				Pending:           r.eng.Pending(),
				Clock:             r.clock,
			}
		}
	}
	idx := s.cfg.Policy.Pick(e.arr, loads)
	if idx < 0 || idx >= len(s.replicas) {
		return fmt.Errorf("serve: policy %s routed to replica %d of %d", s.cfg.Policy.Name(), idx, len(s.replicas))
	}
	if s.lazy {
		if err := s.advance(ctx, s.replicas[idx], e.at); err != nil {
			return err
		}
	}
	rec := e.rec
	rec.replica = idx
	if s.cfg.IncludePrefill {
		rec.prefill = s.replicas[idx].sys.PrefillSeconds(e.arr.Req.Context)
	}
	return s.replicas[idx].eng.Enqueue(e.arr.Req)
}

// Run serves a timed arrival schedule to completion and reports the SLO
// metrics. Arrivals must be sorted by At with unique request IDs; every
// request needs a positive Decode length. With Config.Fleet set, the
// heterogeneous fleet simulator serves the schedule instead (see
// fleet.go); everything below is the classic load-balanced path.
func Run(ctx context.Context, cfg Config, arrivals []workload.Arrival) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(arrivals) == 0 {
		return nil, fmt.Errorf("serve: empty arrival schedule")
	}
	if len(cfg.Fleet) > 0 {
		return runFleet(ctx, cfg, arrivals)
	}
	s := &sim{cfg: cfg}
	_, s.lazy = cfg.Policy.(LoadOblivious)
	mode := syncBarrier
	if s.lazy {
		mode = syncLazy
	}
	s.spine = spine{
		tracker: tracker{recs: make(map[int]*record, len(arrivals)), singleStep: cfg.SingleStep},
		sync:    mode,
		sched:   s,
	}
	for i := 0; i < cfg.Replicas; i++ {
		sys, err := cluster.New(cfg.System)
		if err != nil {
			return nil, err
		}
		eng, err := sys.NewEngine()
		if err != nil {
			return nil, err
		}
		s.replicas = append(s.replicas, &replica{sys: sys, eng: eng})
	}
	s.loads = make([]Load, len(s.replicas))
	for i, a := range arrivals {
		if i > 0 && a.At < arrivals[i-1].At {
			return nil, fmt.Errorf("serve: arrivals not sorted at %d (%g after %g)", i, a.At, arrivals[i-1].At)
		}
		if _, dup := s.recs[a.Req.ID]; dup {
			return nil, fmt.Errorf("serve: duplicate request ID %d in schedule", a.Req.ID)
		}
		s.recs[a.Req.ID] = &record{req: a.Req, arrival: a.At, replica: -1}
	}
	s.arrivals = arrivals
	if err := s.spine.run(ctx); err != nil {
		return nil, err
	}
	return s.report(arrivals)
}

// report folds the per-request records into the SLO metrics and prices
// the run: every classic-path replica is provisioned for the whole
// makespan.
func (s *sim) report(arrivals []workload.Arrival) (*Report, error) {
	rep, err := foldReport(s.recs, arrivals, s.cfg.SLO, s.cfg.Policy.Name(), s.replicas)
	if err != nil {
		return nil, err
	}
	secs := make([]float64, len(s.replicas))
	hourly := make([]float64, len(s.replicas))
	for i, r := range s.replicas {
		secs[i] = rep.MakespanSeconds
		hourly[i] = r.sys.CostPerHour()
	}
	priceReport(rep, secs, hourly, 0)
	return rep, nil
}

// foldReport turns per-request records and replica counters into a
// Report. The metric definitions are shared verbatim by the
// load-balanced and fleet paths — only how work reached a replica
// differs between them, never how its latencies are scored.
func foldReport(recs map[int]*record, arrivals []workload.Arrival, slo SLO, policyName string,
	replicas []*replica) (*Report, error) {
	rep := &Report{
		Policy:      policyName,
		Replicas:    len(replicas),
		Requests:    len(recs),
		OfferedRate: workload.OfferedRate(arrivals),
		PerReplica:  make([]ReplicaStats, len(replicas)),
	}
	firstArrival := arrivals[0].At
	var lastDone float64
	// One latency sample per request: size the sample buffers (and the
	// sort scratch shared by the three quantile folds) exactly once.
	ttfts := make([]float64, 0, len(arrivals))
	tbts := make([]float64, 0, len(arrivals))
	e2es := make([]float64, 0, len(arrivals))
	var goodTokens, allTokens int
	met := 0
	// Iterate in arrival order for deterministic accumulation.
	for _, a := range arrivals {
		rec := recs[a.Req.ID]
		if rec.failed {
			// Retry budget exhausted (faults.go): no latency sample, no
			// tokens, counts against SLO attainment via the denominator.
			continue
		}
		if rec.done == 0 {
			return nil, fmt.Errorf("serve: request %d never completed", a.Req.ID)
		}
		ttft := rec.first - rec.arrival + rec.prefill
		var tbt float64
		if rec.tokens > 1 {
			tbt = (rec.done - rec.first) / float64(rec.tokens-1)
		}
		e2e := rec.done - rec.arrival + rec.prefill
		ttfts = append(ttfts, ttft)
		tbts = append(tbts, tbt)
		e2es = append(e2es, e2e)
		allTokens += rec.tokens
		if slo.Met(ttft, tbt) {
			met++
			goodTokens += rec.tokens
		}
		if rec.done+rec.prefill > lastDone {
			lastDone = rec.done + rec.prefill
		}
		st := &rep.PerReplica[rec.replica]
		st.Requests++
		st.Tokens += rec.tokens
	}
	for i, r := range replicas {
		st := &rep.PerReplica[i]
		st.Steps = r.eng.Steps()
		st.BusySeconds = r.eng.BusySeconds()
		st.Utilization = r.eng.Utilization()
		st.MaxActive = r.eng.MaxActive()
		st.Preemptions = r.eng.Preemptions()
		st.BlockedSeconds = r.eng.BlockedSeconds()
		st.RecomputeSeconds = r.eng.RecomputeSeconds()
		st.PeakLiveBytes = r.eng.PeakLiveBytes()
		st.PeakReservedBytes = r.eng.PeakReservedBytes()

		c := &rep.Capacity
		c.Alloc = r.eng.AllocName()
		c.PoolBytes = r.eng.KVPoolBytes()
		if st.PeakLiveBytes > c.PeakLiveBytes {
			c.PeakLiveBytes = st.PeakLiveBytes
		}
		if st.PeakReservedBytes > c.PeakReservedBytes {
			c.PeakReservedBytes = st.PeakReservedBytes
		}
		if st.MaxActive > c.MaxActive {
			c.MaxActive = st.MaxActive
		}
		c.Preemptions += st.Preemptions
		c.BlockedSeconds += st.BlockedSeconds
		c.RecomputeSeconds += st.RecomputeSeconds
	}
	if lastDone < firstArrival {
		lastDone = firstArrival // every request failed; an empty makespan
	}
	rep.MakespanSeconds = lastDone - firstArrival
	if rep.MakespanSeconds > 0 {
		rep.Throughput = float64(allTokens) / rep.MakespanSeconds
		rep.Goodput = float64(goodTokens) / rep.MakespanSeconds
	}
	rep.Tokens = allTokens
	rep.GoodTokens = goodTokens
	rep.SLOMet = float64(met) / float64(len(recs))
	tmp := make([]float64, len(ttfts))
	rep.TTFT = quantiles(ttfts, tmp)
	rep.TBT = quantiles(tbts, tmp)
	rep.E2E = quantiles(e2es, tmp)
	// Decode energy, accumulated in replica index order (the float
	// addition order is pinned — the fleet tables hash it).
	var picoJoules float64
	for _, r := range replicas {
		ae, fe := r.eng.Energy()
		picoJoules += ae.Total() + fe.Total()
	}
	rep.Energy.DecodeJoules = picoJoules * 1e-12
	if allTokens > 0 {
		rep.Energy.JoulesPerToken = picoJoules * 1e-12 / float64(allTokens)
	}
	return rep, nil
}

// priceReport fills the dollar half of Report.Energy: decode replicas
// charged for their online seconds at their CostPerHour, plus any
// always-on extras (dedicated prefill servers), plus the modeled energy
// at the grid electricity rate.
func priceReport(rep *Report, onlineSeconds, dollarsPerHour []float64, extraDollars float64) {
	e := &rep.Energy
	for i, secs := range onlineSeconds {
		e.ReplicaSeconds += secs
		e.ProvisionDollars += secs / 3600 * dollarsPerHour[i]
	}
	e.ProvisionDollars += extraDollars
	e.EnergyDollars = energy.GridDollars(e.DecodeJoules)
	e.Dollars = e.ProvisionDollars + e.EnergyDollars
	if e.Dollars > 0 {
		if rep.Tokens > 0 {
			e.CostPerMTok = e.Dollars / float64(rep.Tokens) * 1e6
		}
		e.GoodTokensPerDollar = float64(rep.GoodTokens) / e.Dollars
	}
}
