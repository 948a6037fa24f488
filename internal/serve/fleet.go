// Fleet mode: a heterogeneous pool of replicas under one global
// scheduler, instead of N identical replicas behind a load balancer.
//
// A fleet is described by []ReplicaSpec — each spec is its own
// cluster.Config (backend, allocator technique, KV budget) times a
// replica count, tagged with a Role. Unified replicas prefill and
// decode locally, like the classic path. A disaggregated fleet splits
// the phases: RolePrefill replicas run prompt prefills only (they are
// dense-engine servers, not decode engines), and every prefilled
// request is handed off to a RoleDecode replica with its prompt KV
// moving over Config.Interconnect — the PIM-side disaggregation the
// paper's hybrid systems argue for, with the transfer hop explicitly
// priced (bytes = live KV footprint, seconds = latency + bytes/BW).
//
// The global scheduler owns three decisions the per-replica engines
// cannot make:
//
//   - Cross-replica admission: Placement picks a decode replica against
//     fleet-wide KV headroom; a request fitting nowhere waits in a
//     global FIFO instead of being committed to a replica's queue.
//   - KV migration: when a replica preempts a request (DPA pool
//     exhaustion), the scheduler compares moving the live KV over the
//     interconnect against the recompute its re-admission would charge,
//     and migrates to the roomiest other replica when the transfer is
//     cheaper (reusing the engine's requeue/resume machinery).
//   - Queue stealing: an idle decode replica takes a queued
//     zero-progress request from the most backlogged replica, paying
//     the prompt-KV transfer.
//
// The simulation runs on the shared discrete-event spine (des.go)
// under the interleaved discipline: replicas advance their own clocks
// via the tracker one engine call at a time in global clock order, and
// a global event (arrival, handoff completion, migration/steal
// landing) is dispatched only once every busy replica has simulated up
// to it. Each engine call is bounded by the next heap entry, so a leap
// stops with the iteration that reaches it. Everything is
// deterministic, and the fleet loop is internally sequential — tables
// over fleets sweep across grid points, not inside one run — so fleet
// tables are byte-identical at any sweep parallelism.
package serve

import (
	"context"
	"fmt"
	"math"

	"pimphony/internal/cluster"
	"pimphony/internal/timing"
	"pimphony/internal/workload"
)

// Role assigns a fleet replica to a phase of the request lifecycle.
type Role int

const (
	// RoleUnified replicas prefill and decode locally (the classic
	// colocated serving shape).
	RoleUnified Role = iota
	// RolePrefill replicas run prompt prefills only; every request they
	// finish is handed off to a decode replica over the interconnect.
	RolePrefill
	// RoleDecode replicas decode only; their prompts were prefilled
	// elsewhere.
	RoleDecode
)

// String names the role as the -fleet spec grammar spells it.
func (r Role) String() string {
	switch r {
	case RoleUnified:
		return "unified"
	case RolePrefill:
		return "prefill"
	case RoleDecode:
		return "decode"
	default:
		return fmt.Sprintf("role(%d)", int(r))
	}
}

// ReplicaSpec is one homogeneous slice of a fleet: Count replicas built
// from System, serving as Role.
type ReplicaSpec struct {
	System cluster.Config
	Count  int
	Role   Role
	// Min is how many of the Count replicas start online when the fleet
	// is autoscaled (Config.Autoscaler non-nil); the remainder start as
	// offline standby the autoscaler may provision. Ignored — every
	// replica is online — for fixed fleets and for RolePrefill specs
	// (prefill servers are never autoscaled).
	Min int
	// WarmupSeconds is the provisioning delay an autoscaled replica of
	// this spec pays between the scale-up decision and taking work
	// (weight loading, pool initialisation). Zero means scale-ups apply
	// instantly at the decision boundary.
	WarmupSeconds float64
}

// validateFleet checks the fleet half of a Config.
func (c *Config) validateFleet() error {
	decode, prefill := 0, 0
	for i, spec := range c.Fleet {
		if spec.Count <= 0 {
			return fmt.Errorf("serve: fleet spec %d: Count must be positive, got %d", i, spec.Count)
		}
		if spec.Min < 0 || spec.Min > spec.Count {
			return fmt.Errorf("serve: fleet spec %d: Min %d outside [0, Count=%d]", i, spec.Min, spec.Count)
		}
		if spec.WarmupSeconds < 0 {
			return fmt.Errorf("serve: fleet spec %d: WarmupSeconds must be non-negative, got %g", i, spec.WarmupSeconds)
		}
		switch spec.Role {
		case RoleUnified, RoleDecode:
			decode += spec.Count
		case RolePrefill:
			prefill += spec.Count
		default:
			return fmt.Errorf("serve: fleet spec %d: unknown role %d", i, int(spec.Role))
		}
	}
	if decode == 0 {
		return fmt.Errorf("serve: fleet has no decode-capable replica (every spec is RolePrefill)")
	}
	if prefill > 0 && !c.Interconnect.Usable() {
		return fmt.Errorf("serve: disaggregated fleet (RolePrefill replicas) needs a usable Interconnect to hand KV off")
	}
	if c.LeapHorizon < 0 {
		return fmt.Errorf("serve: LeapHorizon must be non-negative, got %d", c.LeapHorizon)
	}
	if err := c.Faults.validate(c.Fleet, decode); err != nil {
		return err
	}
	return nil
}

// FleetStats is the fleet-mode half of a Report: the shape of the
// fleet, the prefill work, and every explicitly priced KV movement the
// global scheduler chose.
type FleetStats struct {
	// PrefillReplicas / DecodeReplicas describe the fleet shape (unified
	// replicas count as decode replicas; their colocated prefill engines
	// are not separate replicas).
	PrefillReplicas int
	DecodeReplicas  int
	// PrefillSeconds is total prompt-processing busy time across the
	// fleet's prefill engines (dedicated and colocated).
	PrefillSeconds float64
	// Handoffs counts prefill→decode transfers in a disaggregated fleet.
	Handoffs int
	// Migrations counts preempted requests whose live KV the scheduler
	// moved to another replica instead of letting re-admission recompute
	// it; Steals counts queued requests pulled by idle replicas.
	Migrations int
	Steals     int
	// Held counts requests that waited in the global queue because no
	// replica had KV headroom at their decision point.
	Held int
	// TransferBytes / TransferSeconds total every KV movement over the
	// interconnect (handoffs, migrations, steals).
	TransferBytes   int64
	TransferSeconds float64
	// JoulesPerToken is decode energy per generated token across the
	// fleet (internal/energy; zero for backends without an energy
	// model).
	JoulesPerToken float64
	// ScaleUps / Drains count the autoscaler's replica provisioning and
	// retirement actions (zero for a fixed fleet).
	ScaleUps int
	Drains   int
	// AvgOnlineReplicas is the time-weighted online decode-replica
	// count over the makespan (equal to DecodeReplicas for a fixed
	// fleet).
	AvgOnlineReplicas float64
	// ScaleEvents is the provision/drain timeline in event order (nil
	// for a fixed fleet).
	ScaleEvents []ScaleEvent
}

// prefillServer is a dense prompt-processing engine with a FIFO busy
// window: requests serialize on it, each charged the system's
// PrefillSeconds.
type prefillServer struct {
	sys  *cluster.System
	free float64 // time the server next becomes available
	busy float64 // total busy seconds
	reqs int
	spec int
	// slow, when positive, multiplies every prompt's duration — the
	// colocated half of a replica's transient slowdown fault (faults.go).
	slow float64
}

// serve schedules one prompt starting no earlier than at, returning the
// completion time.
func (p *prefillServer) serve(at float64, contextTokens int) float64 {
	start := at
	if p.free > start {
		start = p.free
	}
	dur := p.sys.PrefillSeconds(contextTokens)
	if p.slow > 0 {
		dur *= p.slow
	}
	p.free = start + dur
	p.busy += dur
	p.reqs++
	return p.free
}

// fleetReplica is one decode-capable fleet replica: the shared
// advancement replica plus its fleet role and, for unified replicas,
// the colocated prefill engine.
type fleetReplica struct {
	replica
	role Role
	spec int
	pre  *prefillServer // non-nil only for RoleUnified
}

// heldReq is one entry in the global queue: a request no replica could
// admit at its decision point.
type heldReq struct {
	rec *record
	// needsPrefill: the request has not been prefilled yet (unified
	// fleets place before prefilling, so a held request still owes its
	// prompt pass once placed).
	needsPrefill bool
	// recompute: the request was crash-lost with gen tokens of progress;
	// placing it re-admits through the engine's recompute-charging path
	// (faults.go).
	recompute bool
	gen       int
}

// fleetSim drives one fleet simulation: the shared discrete-event
// spine under the interleaved discipline, plus the global scheduler
// state (placement, held queue, in-flight transfers).
type fleetSim struct {
	spine
	cfg       Config
	ic        timing.Interconnect
	placement Placement
	decoders  []*fleetReplica
	prefills  []*prefillServer
	held      deque[heldReq]
	// views holds the incrementally maintained scheduler indexes and
	// autoscale aggregates (views.go), kept in step with every engine
	// call and lifecycle change via touch/setState.
	views fleetViews
	// incoming counts KV transfers in flight toward each decoder, so
	// stealing never targets a replica that already has work landing.
	incoming []int
	// landing counts colocated prefills whose handoff is scheduled onto
	// each decoder, so a drain decision never retires a replica with a
	// prompt about to land (incoming covers migrations/steals only).
	landing []int
	stats   FleetStats
	bpt     int64 // KV bytes per token (uniform across the fleet)

	// Autoscaling state (auto nil = fixed fleet; the per-replica slices
	// are still built, all-online, so placement/steal/drain checks are
	// uniform).
	auto        Autoscaler
	state       []replState
	onlineSince []float64 // provision time of the current online interval
	onlineSecs  []float64 // completed online intervals, makespan-clamped
	// waiting tracks arrived requests that have not produced their
	// first token, for AutoscaleView.OldestWaitSeconds (nil when auto
	// is nil).
	waiting map[int]*record
	// waitq holds the waiting records in arrival order with lazy
	// deletion (the waiting map is the membership marker), so the
	// oldest-wait fold is a front peek instead of a map scan.
	waitq        deque[*record]
	firstArrival float64

	// Timer-driven scale evaluation: total/finished bound the run (no
	// scaling after the workload drains), evalSched is the policy's
	// NextEval half when it has one, and evalAt is the earliest armed
	// evScaleEval deadline (+Inf when none).
	total     int
	finished  int
	evalSched evalScheduler
	evalAt    float64

	// Fault-injection state (faults.go); all nil/zero unless
	// cfg.Faults is active, so the fault-free path is untouched.
	chains    []*faultChain
	slowStack [][]*faultChain // per-replica active slowdown chains
	linkStack []*faultChain   // active fabric-degradation chains
	icScale   float64         // current interconnect transfer-time factor
	fstats    *FaultStats
}

func newFleetSim(cfg Config, n int) (*fleetSim, error) {
	fs := &fleetSim{
		cfg:       cfg,
		ic:        cfg.Interconnect,
		placement: cfg.Placement,
	}
	if fs.placement == nil {
		fs.placement = KVHeadroom()
	}
	bpt := int64(-1)
	for si, spec := range cfg.Fleet {
		if b := spec.System.Model.KVBytesPerToken(); bpt < 0 {
			bpt = b
		} else if b != bpt {
			return nil, fmt.Errorf("serve: fleet spec %d: KV bytes/token %d differs from %d; KV is not portable across the fleet", si, b, bpt)
		}
		for c := 0; c < spec.Count; c++ {
			sys, err := cluster.New(spec.System)
			if err != nil {
				return nil, err
			}
			if spec.Role == RolePrefill {
				fs.prefills = append(fs.prefills, &prefillServer{sys: sys, spec: si})
				continue
			}
			eng, err := sys.NewEngine()
			if err != nil {
				return nil, err
			}
			eng.SetHorizon(cfg.LeapHorizon)
			fr := &fleetReplica{replica: replica{sys: sys, eng: eng}, role: spec.Role, spec: si}
			if spec.Role == RoleUnified {
				fr.pre = &prefillServer{sys: sys, spec: si}
			}
			fs.decoders = append(fs.decoders, fr)
			if cfg.Autoscaler == nil || c < spec.Min {
				fs.state = append(fs.state, stateOnline)
			} else {
				fs.state = append(fs.state, stateOffline)
			}
			fs.onlineSince = append(fs.onlineSince, 0)
		}
	}
	fs.bpt = bpt
	fs.incoming = make([]int, len(fs.decoders))
	fs.landing = make([]int, len(fs.decoders))
	fs.onlineSecs = make([]float64, len(fs.decoders))
	fs.auto = cfg.Autoscaler
	fs.evalSched, _ = cfg.Autoscaler.(evalScheduler)
	fs.evalAt = math.Inf(1)
	fs.total = n
	if fs.auto != nil {
		fs.waiting = make(map[int]*record, n)
	}
	reps := make([]*replica, len(fs.decoders))
	for i, d := range fs.decoders {
		reps[i] = &d.replica
	}
	fs.spine = spine{
		tracker:  tracker{recs: make(map[int]*record, n), singleStep: cfg.SingleStep},
		replicas: reps,
		sync:     syncInterleaved,
		readyGen: make([]int, len(reps)),
		sched:    fs,
	}
	fs.initViews()
	return fs, nil
}

// runFleet serves a timed arrival schedule on a heterogeneous fleet.
func runFleet(ctx context.Context, cfg Config, arrivals []workload.Arrival) (*Report, error) {
	fs, err := newFleetSim(cfg, len(arrivals))
	if err != nil {
		return nil, err
	}
	for i, a := range arrivals {
		if i > 0 && a.At < arrivals[i-1].At {
			return nil, fmt.Errorf("serve: arrivals not sorted at %d (%g after %g)", i, a.At, arrivals[i-1].At)
		}
		if _, dup := fs.recs[a.Req.ID]; dup {
			return nil, fmt.Errorf("serve: duplicate request ID %d in schedule", a.Req.ID)
		}
		fs.recs[a.Req.ID] = &record{req: a.Req, arrival: a.At, replica: -1}
	}
	fs.arrivals = arrivals
	fs.firstArrival = arrivals[0].At
	fs.initFaults()
	if err := fs.spine.run(ctx); err != nil {
		return nil, err
	}
	return fs.report(arrivals)
}

// onStep reacts to one decoder engine call: first tokens retire their
// requests from the autoscaler's waiting set, completions advance the
// finished count (and, being leap-invariant boundaries — leaps end
// exactly at completing iterations — give the autoscaler a decision),
// and any preemptions the step produced become migration candidates.
func (fs *fleetSim) onStep(di int, res cluster.StepResult) error {
	fs.touch(di)
	if fs.auto != nil {
		for _, id := range res.Generated {
			delete(fs.waiting, id)
		}
	}
	if len(res.Completed) > 0 {
		fs.finished += len(res.Completed)
		fs.autoscale(fs.decoders[di].clock)
	}
	if len(res.Preempted) == 0 || !fs.cfg.Migrate || !fs.ic.Usable() {
		return nil
	}
	for _, v := range res.Preempted {
		if err := fs.considerMigration(di, v); err != nil {
			return err
		}
	}
	return nil
}

// react runs at every engine-call and dispatch boundary: retry the held
// queue against freed headroom, then let idle decoders steal. Scale
// evaluation deliberately does NOT run here — it fires only at heap
// events (arrivals, completions, landings, crashes, retries and the
// policy's own evScaleEval timers), which are identical at every leap
// granularity, so autoscaled runs are leap-invariant.
func (fs *fleetSim) react(now float64) error {
	fs.placeHeld(now)
	fs.trySteal(now)
	return nil
}

// idleWork retries the held queue once the fleet is fully drained. An
// autoscaled fleet gets a policy decision first, and — if the policy
// holds back (cooldown) while requests sit unplaceable — a backstop
// provision of one standby, so a drained-to-zero fleet never stalls on
// capacity it owns. A held request that still fits nowhere is a
// permanent stall.
func (fs *fleetSim) idleWork() (bool, error) {
	if fs.held.len() == 0 {
		return false, nil
	}
	n := fs.held.len()
	fs.autoscale(fs.clock)
	if fs.pendingProgress() {
		return true, nil // a provision is warming; its landing resumes placement
	}
	fs.placeHeld(fs.clock)
	if fs.held.len() < n {
		return true, nil
	}
	if fs.auto != nil && fs.provision(fs.clock, 1) > 0 {
		if fs.pendingProgress() {
			return true, nil
		}
		fs.placeHeld(fs.clock)
		if fs.held.len() < n {
			return true, nil
		}
	}
	return false, fmt.Errorf("serve: %d requests held with no fleet replica able to admit them", n)
}

// considerMigration decides a preempted request's fate: move its live
// KV to another replica if the transfer is cheaper than the recompute
// re-admission would charge here, otherwise leave it queued for the
// recompute path.
func (fs *fleetSim) considerMigration(di int, v workload.Request) error {
	d := fs.decoders[di]
	gen := d.eng.Progress(v.ID)
	kvTokens := v.Context + gen
	bytes := int64(kvTokens) * fs.bpt
	transfer := fs.transferSeconds(bytes)
	recompute := d.sys.PrefillSeconds(kvTokens)
	if f := fs.slowFactor(di); f > 1 {
		recompute *= f // a degraded replica recomputes slower, too
	}
	if transfer >= recompute {
		return nil // recompute locally is at least as cheap
	}
	// byFreeKV visits online decoders by free KV descending, ties to the
	// lowest index — the first entry (other than the preempting replica)
	// that can admit the request is exactly the linear scan's roomiest
	// destination.
	dst := -1
	fs.views.byFreeKV.ascend(func(i int) bool {
		if i == di || !fs.decoders[i].eng.HasHeadroom(v) {
			return true
		}
		dst = i
		return false
	})
	if dst < 0 {
		return nil // nowhere to go; recompute path
	}
	if _, _, err := d.eng.Withdraw(v.ID); err != nil {
		return err
	}
	fs.touch(di)
	fs.stats.Migrations++
	fs.stats.TransferBytes += bytes
	fs.stats.TransferSeconds += transfer
	fs.incoming[dst]++
	fs.touch(dst)
	fs.push(evMigrated, fs.recs[v.ID], gen, dst, d.clock+transfer)
	return nil
}

// dispatch applies one global event at its timestamp.
func (fs *fleetSim) dispatch(_ context.Context, e *event) error {
	switch e.kind {
	case evArrival:
		return fs.routeArrival(e)
	case evHandoff:
		if e.dst >= 0 {
			fs.landing[e.dst]--
			if fs.state[e.dst] == stateFailed {
				// The destination crashed after its colocated prefill was
				// scheduled; the prompt KV went down with it.
				return fs.retryOrFail(e.rec, 0, e.at)
			}
			return fs.enqueueOn(e.dst, e.rec)
		}
		// Disaggregated handoff: the KV is staged, place it now (after
		// an autoscale decision — the landing is a placement boundary).
		fs.autoscale(e.at)
		if dst := fs.placement.place(fs, e.rec.req); dst >= 0 {
			return fs.enqueueOn(dst, e.rec)
		}
		fs.held.pushBack(heldReq{rec: e.rec})
		fs.stats.Held++
		return nil
	case evMigrated, evStolen:
		fs.incoming[e.dst]--
		if fs.state[e.dst] == stateFailed {
			// The destination crashed with this KV in flight toward it.
			return fs.retryOrFail(e.rec, e.gen, e.at)
		}
		e.rec.replica = e.dst
		d := fs.decoders[e.dst]
		if d.eng.Idle() && d.clock < e.at {
			d.clock = e.at // lazy idle-clock pull; see enqueueOn
		}
		if err := d.eng.EnqueueResumed(e.rec.req, e.gen); err != nil {
			return err
		}
		fs.touch(e.dst)
		fs.wake(e.dst)
		return nil
	case evProvision:
		if fs.state[e.dst] != stateWarming {
			return fmt.Errorf("serve: provision landed on replica %d in state %v", e.dst, fs.state[e.dst])
		}
		fs.setOnline(e.dst, e.at)
		return nil
	case evDrain:
		if fs.state[e.dst] != stateDraining {
			return fmt.Errorf("serve: drain landed on replica %d in state %v", e.dst, fs.state[e.dst])
		}
		d := fs.decoders[e.dst]
		if !d.eng.Idle() || fs.incoming[e.dst] > 0 || fs.landing[e.dst] > 0 {
			return fmt.Errorf("serve: draining replica %d still holds work at t=%g", e.dst, e.at)
		}
		fs.setState(e.dst, stateOffline)
		since := fs.onlineSince[e.dst]
		if since < fs.firstArrival {
			since = fs.firstArrival
		}
		if e.at > since {
			fs.onlineSecs[e.dst] += e.at - since
		}
		fs.recordScale(e.at, -1)
		return nil
	case evFail:
		c := fs.chains[e.gen]
		if fs.finished >= fs.total {
			return nil // workload drained; the chain ends here
		}
		if err := fs.applyFault(c, e.at); err != nil {
			return err
		}
		// The down interval is drawn whether or not the fault applied
		// (see faultChain.exp), keeping the chain's stream stable.
		fs.push(evRecover, nil, e.gen, e.dst, e.at+c.downFor())
		return nil
	case evRecover:
		c := fs.chains[e.gen]
		fs.clearFault(c, e.at)
		if !c.oneshot && fs.finished < fs.total {
			fs.push(evFail, nil, e.gen, e.dst, e.at+c.exp(c.mtbf))
		}
		// Stall guard: if nothing but fault timers can ever run again and
		// requests are still held, idleWork either makes progress or
		// surfaces the same loud stall error the fault-free run would —
		// an eternal fault chain must not keep a dead simulation spinning.
		if fs.held.len() > 0 && fs.faultQuiescent() {
			if _, err := fs.idleWork(); err != nil {
				return err
			}
		}
		return nil
	case evRetry:
		fs.autoscale(e.at)
		if e.gen > 0 {
			// Progress to recompute: the request decodes from gen, but its
			// re-admission charges the full Context+gen KV rebuild.
			if dst := fs.placement.place(fs, e.rec.req); dst >= 0 {
				return fs.enqueueRecomputeOn(dst, e.rec, e.gen)
			}
			fs.held.pushBack(heldReq{rec: e.rec, recompute: true, gen: e.gen})
			fs.stats.Held++
			return nil
		}
		// Zero progress: route like a fresh arrival (the prompt pass
		// reruns wherever it lands).
		return fs.routeBody(e.rec, e.at)
	case evScaleEval:
		fs.evalAt = math.Inf(1)
		fs.autoscale(e.at)
		return nil
	default:
		return fmt.Errorf("serve: unknown fleet event kind %d", int(e.kind))
	}
}

// routeArrival sends a new request into its prefill phase. In a
// disaggregated fleet the earliest-free prefill server takes it and the
// handoff (prefill end + KV transfer) is scheduled with placement
// deferred to landing time; in a unified fleet placement happens now —
// the prompt KV is built where the request will decode — and a held
// request owes its prefill once placed.
func (fs *fleetSim) routeArrival(e *event) error {
	rec := e.rec
	if fs.auto != nil {
		// The arrival joins the waiting set before the scale decision,
		// so the autoscaler sees it — and an always-scale policy brings
		// the whole fleet up before this very placement (the fixed-fleet
		// equivalence hinges on that ordering).
		fs.waiting[rec.req.ID] = rec
		fs.waitq.pushBack(rec)
		fs.autoscale(e.at)
	}
	return fs.routeBody(rec, e.at)
}

// routeBody sends an un-prefilled request into its prefill phase —
// fresh arrivals and zero-progress crash retries take the same path.
func (fs *fleetSim) routeBody(rec *record, at float64) error {
	if len(fs.prefills) > 0 {
		pi := fs.pickPrefill()
		p := fs.prefills[pi]
		end := p.serve(at, rec.req.Context)
		fs.touchPrefill(pi, p)
		bytes := int64(rec.req.Context) * fs.bpt
		transfer := fs.transferSeconds(bytes)
		fs.stats.Handoffs++
		fs.stats.TransferBytes += bytes
		fs.stats.TransferSeconds += transfer
		fs.push(evHandoff, rec, 0, -1, end+transfer)
		return nil
	}
	if dst := fs.placement.place(fs, rec.req); dst >= 0 {
		fs.localPrefill(dst, rec, at)
		return nil
	}
	fs.held.pushBack(heldReq{rec: rec, needsPrefill: true})
	fs.stats.Held++
	return nil
}

// localPrefill runs a unified replica's colocated prompt pass and
// schedules the (transfer-free) handoff into its own decode queue.
func (fs *fleetSim) localPrefill(dst int, rec *record, now float64) {
	end := fs.decoders[dst].pre.serve(now, rec.req.Context)
	fs.landing[dst]++
	fs.touch(dst)
	fs.push(evHandoff, rec, 0, dst, end)
}

// pickPrefill picks the earliest-available dedicated prefill server
// (ties to the lowest index): the first entry of the free-time index.
func (fs *fleetSim) pickPrefill() int {
	return fs.views.prefillFree.first()
}

// enqueueOn commits a prefilled request to a decoder's queue. An idle
// destination's clock is pulled up to the scheduler clock first, so the
// ready entry wake arms lands at now, not at a stale idle timestamp.
func (fs *fleetSim) enqueueOn(dst int, rec *record) error {
	rec.replica = dst
	d := fs.decoders[dst]
	if d.eng.Idle() && d.clock < fs.clock {
		d.clock = fs.clock
	}
	if err := d.eng.Enqueue(rec.req); err != nil {
		return err
	}
	fs.touch(dst)
	fs.wake(dst)
	return nil
}

// enqueueRecomputeOn commits a crash-lost request with prior progress to
// a decoder: re-admission charges the Context+gen KV rebuild through the
// engine's recompute path, then decoding resumes at gen.
func (fs *fleetSim) enqueueRecomputeOn(dst int, rec *record, gen int) error {
	rec.replica = dst
	d := fs.decoders[dst]
	if d.eng.Idle() && d.clock < fs.clock {
		d.clock = fs.clock
	}
	if err := d.eng.EnqueueRecompute(rec.req, gen); err != nil {
		return err
	}
	fs.touch(dst)
	fs.wake(dst)
	return nil
}

// placeHeld retries the global queue in FIFO order, stopping at the
// first request that still fits nowhere (strict FCFS, matching the
// engines' own queue discipline).
func (fs *fleetSim) placeHeld(now float64) {
	for fs.held.len() > 0 {
		h := fs.held.front()
		dst := fs.placement.place(fs, h.rec.req)
		if dst < 0 {
			return
		}
		fs.held.popFront()
		d := fs.decoders[dst]
		if d.eng.Idle() && d.clock < now {
			d.clock = now
		}
		if h.needsPrefill {
			fs.localPrefill(dst, h.rec, now)
			continue
		}
		// Unplaceable enqueue errors cannot happen here: place() only
		// returns fitting replicas for the built-in policies, and a
		// custom policy routing a duplicate would have failed earlier.
		var err error
		if h.recompute {
			err = fs.enqueueRecomputeOn(dst, h.rec, h.gen)
		} else {
			err = fs.enqueueOn(dst, h.rec)
		}
		if err != nil {
			// Put it back and stop; run() will surface the stall.
			fs.held.pushFront(h)
			return
		}
	}
}

// trySteal lets each idle decoder (with nothing already in flight
// toward it) pull the newest zero-progress queued request from the most
// backlogged other decoder, paying the prompt-KV transfer.
func (fs *fleetSim) trySteal(now float64) {
	if !fs.cfg.Steal || !fs.ic.Usable() {
		return
	}
	v := &fs.views
	if v.thieves.count == 0 || v.stealSrc.count == 0 {
		return
	}
	// Snapshot the thief set in index order. No replica becomes a thief
	// mid-loop — a steal only touches the current thief's incoming count
	// and the source's queue, and sources (Active > 0) are never thieves
	// — so the snapshot visits exactly the replicas the index-order scan
	// visited; conditions are still re-checked at each visit.
	v.thiefScratch = v.thiefScratch[:0]
	v.thieves.ascend(func(i int) bool {
		v.thiefScratch = append(v.thiefScratch, i)
		return true
	})
	for _, di := range v.thiefScratch {
		d := fs.decoders[di]
		if fs.state[di] != stateOnline || !d.eng.Idle() || fs.incoming[di] > 0 || fs.degraded(di) {
			continue
		}
		// The steal-source index orders decoders with an active batch and
		// a backlog by pending count descending, ties to the lowest index
		// — its first entry is the linear scan's most backlogged source.
		// (A replica whose queue is non-empty but idle is about to admit
		// that work itself, and stealing it back and forth would never
		// converge; such replicas are not in the index. The thief itself
		// is idle, so it is never its own source.)
		src := v.stealSrc.first()
		if src < 0 {
			return // no sources left for any thief
		}
		s := fs.decoders[src]
		r, ok := s.eng.PeekStealable()
		if !ok {
			continue
		}
		// Livelock guard, checked while the request is still queued: a
		// thief may only steal what it can admit. Without the check, a
		// busy source with exactly one queued request keeps losing it to
		// an idle replica whose KV budget cannot hold it — the request
		// then sits in the thief's queue with the thief's clock frozen,
		// re-examined at the same timestamp forever, while the source
		// would have admitted it as soon as its batch shrank.
		if !d.eng.HasHeadroom(r) {
			continue
		}
		r2, ok := s.eng.StealNewest()
		if ok {
			fs.touch(src)
		}
		if !ok || r2.ID != r.ID {
			continue
		}
		bytes := int64(r.Context) * fs.bpt
		transfer := fs.transferSeconds(bytes)
		at := now
		if s.clock > at {
			at = s.clock
		}
		fs.stats.Steals++
		fs.stats.TransferBytes += bytes
		fs.stats.TransferSeconds += transfer
		fs.incoming[di]++
		fs.touch(di)
		fs.push(evStolen, fs.recs[r.ID], 0, di, at+transfer)
	}
}

// autoscale gives the policy one decision at a heap-event boundary and
// applies it, clamped to what exists (standby pool going up, idle
// online replicas going down), then arms the policy's next evaluation
// timer. No-op for fixed fleets and once the workload has drained (no
// post-completion scaling, and no timer chain to keep the heap alive).
func (fs *fleetSim) autoscale(now float64) {
	if fs.auto == nil || fs.finished >= fs.total {
		return
	}
	switch n := fs.auto.Scale(fs.view(now)); {
	case n > 0:
		fs.provision(now, n)
	case n < 0:
		fs.drainIdle(now, -n)
	}
	if fs.evalSched != nil {
		fs.armEval(now, fs.evalSched.NextEval(fs.view(now)))
	}
}

// armEval schedules an evScaleEval at the policy's requested deadline,
// keeping only the earliest outstanding timer: a later deadline never
// needs its own event, because the earlier dispatch re-evaluates and
// re-arms. Stale timers (the fleet re-armed earlier and already fired)
// dispatch as cheap deterministic no-op evaluations.
func (fs *fleetSim) armEval(now, at float64) {
	if !(at > now) || math.IsInf(at, 1) || at >= fs.evalAt {
		return
	}
	fs.evalAt = at
	fs.push(evScaleEval, nil, 0, -1, at)
}

// view snapshots the fleet for one autoscaling decision, entirely from
// the maintained aggregates — O(1) regardless of fleet size (amortizing
// the lazy waitq pops), and exactly the fold the per-replica scan
// produced: the counters accumulate the same integers, FreeKVFrac
// divides the same int64 sums, and the oldest wait is now minus the
// earliest still-waiting arrival (arrivals enter the queue in
// nondecreasing order, so the live front is the minimum).
func (fs *fleetSim) view(now float64) AutoscaleView {
	v := &fs.views
	av := AutoscaleView{
		Now: now, SLO: fs.cfg.SLO, Held: fs.held.len(),
		Online: v.onlineCnt, Warming: v.warmingCnt, Standby: v.standbyCnt,
		Failed:     v.failedCnt,
		IdleOnline: v.drainable.count,
		Queued:     v.queued, Active: v.activeSum,
		Waiting:       len(fs.waiting),
		OldestArrival: math.Inf(1),
	}
	if v.poolSum > 0 {
		av.FreeKVFrac = float64(v.freeSum) / float64(v.poolSum)
	}
	for fs.waitq.len() > 0 {
		if _, ok := fs.waiting[fs.waitq.front().req.ID]; ok {
			break
		}
		fs.waitq.popFront()
	}
	if fs.waitq.len() > 0 {
		av.OldestArrival = fs.waitq.front().arrival
		if w := now - av.OldestArrival; w > 0 {
			av.OldestWaitSeconds = w
		}
	}
	return av
}

// provision brings up to k standby replicas online, lowest index
// first, and reports how many it started. A spec with zero warm-up
// comes online synchronously at the decision time (this is what makes
// a zero-warm-up always-scale policy reproduce the fixed fleet
// exactly); otherwise the replica warms until its evProvision lands.
func (fs *fleetSim) provision(now float64, k int) int {
	done := 0
	for done < k {
		i := fs.views.standby.first() // lowest-index offline replica
		if i < 0 {
			break
		}
		fs.stats.ScaleUps++
		fs.setState(i, stateWarming)
		if w := fs.cfg.Fleet[fs.decoders[i].spec].WarmupSeconds; w > 0 {
			fs.push(evProvision, nil, 0, i, now+w)
		} else {
			fs.setOnline(i, now)
		}
		done++
	}
	return done
}

// setOnline completes a provision: the replica joins the online pool
// at t, with its idle clock pulled up so its first work starts no
// earlier than its arrival into the pool.
func (fs *fleetSim) setOnline(i int, t float64) {
	fs.setState(i, stateOnline)
	fs.onlineSince[i] = t
	if d := fs.decoders[i]; d.eng.Idle() && d.clock < t {
		d.clock = t
	}
	fs.recordScale(t, +1)
}

// drainIdle retires up to k idle online replicas, highest index first
// (the low indices stay as the stable base the provision order
// rebuilds). Each drain is an evDrain at the decision time; flipping
// to stateDraining immediately keeps placement, stealing and
// migration off the replica until the event lands.
func (fs *fleetSim) drainIdle(now float64, k int) {
	for ; k > 0; k-- {
		i := fs.views.drainable.last() // highest-index idle online replica
		if i < 0 {
			return
		}
		fs.setState(i, stateDraining)
		fs.push(evDrain, nil, 0, i, now)
	}
}

// recordScale appends one timeline entry after a replica-set change
// and keeps the action counters.
func (fs *fleetSim) recordScale(at float64, delta int) {
	fs.stats.ScaleEvents = append(fs.stats.ScaleEvents, ScaleEvent{At: at, Delta: delta, Online: fs.views.onlineCnt})
	if delta < 0 {
		fs.stats.Drains++
	}
}

// report folds the shared per-request records plus the fleet extras.
func (fs *fleetSim) report(arrivals []workload.Arrival) (*Report, error) {
	reps := make([]*replica, len(fs.decoders))
	for i, d := range fs.decoders {
		reps[i] = &d.replica
	}
	rep, err := foldReport(fs.recs, arrivals, fs.cfg.SLO, fs.placement.Name(), reps)
	if err != nil {
		return nil, err
	}
	st := fs.stats
	st.PrefillReplicas = len(fs.prefills)
	st.DecodeReplicas = len(fs.decoders)
	for _, p := range fs.prefills {
		st.PrefillSeconds += p.busy
	}
	for _, d := range fs.decoders {
		if d.pre != nil {
			st.PrefillSeconds += d.pre.busy
		}
	}
	// The energy fold (foldReport) accumulated the decoders' joules in
	// the same replica order as before; mirror its per-token figure.
	st.JoulesPerToken = rep.Energy.JoulesPerToken
	// Provisioning: decode replicas for their online seconds — the
	// whole makespan for a fixed fleet, the provision-to-drain integral
	// for an autoscaled one — plus dedicated prefill servers, kept
	// online for the whole run.
	secs := make([]float64, len(fs.decoders))
	hourly := make([]float64, len(fs.decoders))
	for i, d := range fs.decoders {
		hourly[i] = d.sys.CostPerHour()
	}
	if fs.auto == nil && fs.fstats == nil {
		for i := range fs.decoders {
			secs[i] = rep.MakespanSeconds
		}
	} else {
		// Close the still-open online intervals at the exact makespan
		// end (recomputed here as foldReport computes it, so a replica
		// online since the first arrival is charged bit-identically to
		// the fixed fleet's MakespanSeconds).
		end := fs.firstArrival
		for _, a := range arrivals {
			if rec := fs.recs[a.Req.ID]; rec.done+rec.prefill > end {
				end = rec.done + rec.prefill
			}
		}
		for i := range fs.decoders {
			if fs.state[i] == stateOnline {
				since := fs.onlineSince[i]
				if since < fs.firstArrival {
					since = fs.firstArrival
				}
				if end > since {
					fs.onlineSecs[i] += end - since
				}
			}
			secs[i] = fs.onlineSecs[i]
		}
	}
	var prefillDollars float64
	for _, p := range fs.prefills {
		prefillDollars += rep.MakespanSeconds / 3600 * p.sys.CostPerHour()
	}
	priceReport(rep, secs, hourly, prefillDollars)
	if rep.MakespanSeconds > 0 {
		st.AvgOnlineReplicas = rep.Energy.ReplicaSeconds / rep.MakespanSeconds
	}
	rep.Fleet = &st
	rep.Faults = fs.fstats
	return rep, nil
}
