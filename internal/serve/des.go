// The discrete-event spine shared by the classic load-balanced
// simulator (serve.go) and the heterogeneous fleet simulator
// (fleet.go). Both paths run the same loop over one priority heap of
// typed events — arrivals, prefill handoffs, migration and steal
// landings, and replica-ready ticks — with every replica keeping an
// independent clock. What differs between the paths is only the
// synchronization discipline: how far other replicas must have
// simulated before an event may be dispatched. A replica synchronizes
// exactly when the scheduler genuinely observes cross-replica state,
// and never otherwise:
//
//   - syncBarrier (classic, load-aware policy): routing reads every
//     replica's live queue state, so all replicas advance to the
//     arrival time before it dispatches. Replicas share no state
//     between events, so the barrier advance runs them concurrently
//     (internal/sweep) with byte-identical results at any parallelism.
//   - syncLazy (classic, LoadOblivious policy): routing reads nothing,
//     so only the destination replica advances to the arrival time —
//     the others keep simulating in larger leaps and catch up when
//     they are next routed to (or at drain). Exact by the
//     leap-partitioning argument below.
//   - syncInterleaved (fleet): the global scheduler reacts to every
//     engine-call boundary (preemptions become migrations, completions
//     free headroom for held requests, idle replicas steal), so busy
//     replicas advance one engine call at a time in global clock
//     order. Each busy replica owns one evReady entry at its clock;
//     popping it advances that replica bounded by the next heap entry,
//     which is exactly "the earliest pending event or the
//     next-lagging replica's clock, whichever comes first".
//
// Idle clocks. No discipline sweeps idle replicas' clocks forward on
// every event; each lifts an idle clock to the event time exactly where
// the clock is observed. The barrier advance lifts every replica before
// routing reads Load.Clock. Lazy dispatch advances, and so lifts, only
// its destination; the other replicas' loads are never read. The fleet
// lifts an idle clock at each point that reads it: enqueue, resume of a
// migrated or stolen request, provision and fault recovery.
//
// Exactness. Every per-token timestamp is bit-identical across
// disciplines and leap granularities because engine advancement
// composes: cluster.Engine.Leap prices the same per-iteration sequence
// of (batch, tokens) no matter where the until clamp partitions it,
// and tracker.apply replays IterSeconds one float addition at a time
// in iteration order. A partition boundary inserted where no enqueue,
// admission or retirement happens (the only thing lazy advancement
// removes) therefore changes which Leap call prices an iteration, but
// never what the iteration costs or when it ends. The equivalence
// suite (equiv_test.go) pins this across backends, allocators,
// policies, horizons and sweep parallelism.
package serve

import (
	"container/heap"
	"context"
	"fmt"
	"math"

	"pimphony/internal/cluster"
	"pimphony/internal/sweep"
	"pimphony/internal/workload"
)

// eventKind labels one entry in the spine's heap.
type eventKind int

const (
	// evArrival: a request enters the system at its schedule time.
	evArrival eventKind = iota
	// evHandoff: a prompt prefill finished and (for disaggregated
	// fleets) its KV landed; the request is ready to decode.
	evHandoff
	// evMigrated: a preempted request's live KV landed on its migration
	// destination.
	evMigrated
	// evStolen: a stolen queued request's prompt KV landed on the idle
	// replica that pulled it.
	evStolen
	// evProvision: an autoscaled standby replica's warm-up finished; it
	// joins the online pool at this timestamp (fleet autoscaling only,
	// see autoscale.go). dst is the replica index.
	evProvision
	// evDrain: the autoscaler retired an idle online replica; it leaves
	// the online pool at this timestamp (fleet autoscaling only). dst
	// is the replica index.
	evDrain
	// evReady: a busy replica's next engine-call boundary — its clock.
	// Popping it advances that replica by one (horizon-clamped) engine
	// call; a leap cut short by Engine.SetHorizon simply re-arms the
	// entry at the new clock, so horizon expiry needs no separate
	// bookkeeping. Only the interleaved discipline arms these.
	evReady
	// evFail: a fault chain fires on a replica (crash, transient
	// slowdown or link degradation; see faults.go). gen is the chain
	// index, dst the replica (fleet fault injection only).
	evFail
	// evRecover: a fault chain's down interval ends; the replica (or
	// the fabric) returns to health and the chain re-arms its next
	// failure. gen is the chain index, dst the replica.
	evRecover
	// evRetry: a request lost to a crash re-enters routing after its
	// deterministic backoff. gen carries the tokens it had generated
	// before the loss (recomputed on re-admission).
	evRetry
	// evScaleEval: an autoscaler-requested re-evaluation deadline
	// (cooldown expiry, oldest-wait threshold crossing). Explicit timer
	// events are what make autoscaled runs leap-invariant: scale
	// decisions fire at heap-event boundaries, which are identical at
	// every leap granularity, instead of at engine-call density.
	evScaleEval
)

// event is one scheduled entry in the spine's heap.
type event struct {
	at   float64
	seq  int // push order among non-ready events; FIFO tie-break
	kind eventKind
	rec  *record
	arr  workload.Arrival // evArrival: the arrival being routed
	gen  int              // evMigrated: tokens already generated (migration progress)
	dst  int              // target decoder index; -1 = placement decides at dispatch

	// evReady fields: the replica the entry belongs to and the arming
	// generation — a stale generation means the replica was re-armed
	// (its clock moved) and the entry is discarded on pop.
	replica int
	rgen    int
}

// eventQueue is a min-heap on (at, kind class, seq | replica): at equal
// timestamps global events dispatch before any replica advances past
// them (the scheduler must see the event at that boundary), events keep
// FIFO push order among themselves, and ready entries tie-break to the
// lowest replica index — the same total order the sequential
// lagging-replica scan produced.
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	a, b := q[i], q[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if ar, br := a.kind == evReady, b.kind == evReady; ar != br {
		return br // the non-ready event first
	}
	if a.kind == evReady {
		return a.replica < b.replica
	}
	return a.seq < b.seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// syncMode selects the spine's synchronization discipline.
type syncMode int

const (
	syncBarrier syncMode = iota
	syncLazy
	syncInterleaved
)

// scheduler is the policy half a simulator plugs into the spine: how
// events are applied and how the global scheduler reacts to progress.
// The spine owns when replicas advance; the scheduler owns where work
// goes.
type scheduler interface {
	// dispatch applies one popped non-ready event at its timestamp.
	dispatch(ctx context.Context, e *event) error
	// onStep reacts to one replica engine call (the fleet scheduler
	// turns preemptions into migrations here).
	onStep(replica int, res cluster.StepResult) error
	// react runs after every engine call and event dispatch, at that
	// boundary's time (the fleet scheduler retries held requests and
	// considers steals here).
	react(now float64) error
	// idleWork runs when the heap is drained and every replica is
	// idle; it reports whether new work was created (the fleet's held
	// queue being retried) or the simulation is complete.
	idleWork() (bool, error)
}

// spine is the discrete-event core: the per-request tracker, the
// replica set with independent clocks, and the event heap.
type spine struct {
	tracker
	replicas []*replica
	sync     syncMode
	sched    scheduler
	events   eventQueue
	seq      int
	readyGen []int
	// clock is the scheduler's notion of now: the latest dispatched
	// event time.
	clock float64
}

// pushArrival schedules a request's entry into the system.
func (s *spine) pushArrival(rec *record, a workload.Arrival) {
	s.seq++
	heap.Push(&s.events, &event{at: a.At, seq: s.seq, kind: evArrival, rec: rec, arr: a, dst: -1})
}

// push schedules a handoff/migration/steal landing.
func (s *spine) push(kind eventKind, rec *record, gen, dst int, at float64) {
	s.seq++
	heap.Push(&s.events, &event{at: at, seq: s.seq, kind: kind, rec: rec, gen: gen, dst: dst})
}

// wake (re-)arms a replica's ready entry at its current clock,
// invalidating any previous entry. Call it whenever a replica gains
// work or its clock moves; arming an already-armed replica is safe.
// Only the interleaved discipline uses ready entries.
func (s *spine) wake(i int) {
	if s.sync != syncInterleaved || s.replicas[i].eng.Idle() {
		return
	}
	s.readyGen[i]++
	heap.Push(&s.events, &event{at: s.replicas[i].clock, kind: evReady, replica: i, rgen: s.readyGen[i]})
}

// busyCount reports how many replicas still hold work.
func (s *spine) busyCount() int {
	n := 0
	for _, r := range s.replicas {
		if !r.eng.Idle() {
			n++
		}
	}
	return n
}

// advanceAll advances every replica up to time t. Replicas share no
// state between events, so they advance concurrently through the sweep
// engine; every load snapshot — and therefore every table — is
// byte-identical to the sequential loop at any parallelism.
func (s *spine) advanceAll(ctx context.Context, t float64) error {
	if len(s.replicas) == 1 {
		return s.advance(ctx, s.replicas[0], t)
	}
	_, err := sweep.Run(ctx, s.replicas, func(ctx context.Context, r *replica) (struct{}, error) {
		return struct{}{}, s.advance(ctx, r, t)
	})
	return err
}

// run is the event loop. It pops the globally earliest entry: a ready
// entry advances its replica by one engine call bounded by the next
// entry, a global event is dispatched once the discipline's
// synchronization requirement holds — by construction for interleaved
// mode (a lagging busy replica's ready entry sorts first), by an
// explicit concurrent barrier advance for barrier mode, and vacuously
// for lazy mode (the dispatch advances its destination itself).
func (s *spine) run(ctx context.Context) error {
	for {
		if s.events.Len() == 0 {
			if s.busyCount() > 0 {
				if s.sync == syncInterleaved {
					return fmt.Errorf("serve: event heap drained with %d replicas still busy", s.busyCount())
				}
				// Classic drain: no more arrivals, run everything out.
				if err := s.advanceAll(ctx, math.Inf(1)); err != nil {
					return err
				}
			}
			made, err := s.sched.idleWork()
			if err != nil {
				return err
			}
			if made {
				continue
			}
			return nil
		}
		e := s.events[0]
		if e.kind == evReady {
			heap.Pop(&s.events)
			d := s.replicas[e.replica]
			if e.rgen != s.readyGen[e.replica] || d.eng.Idle() {
				continue // re-armed or drained since push
			}
			// DES invariants, checked on every pop: a fresh ready entry
			// sits exactly at its replica's clock (wake re-arms on every
			// clock move, so a mismatch means a replica advanced without
			// re-arming), and no entry fires behind the scheduler clock
			// (the heap dispatched something out of order).
			if e.at != d.clock {
				return fmt.Errorf("serve: replica %d ready entry at t=%g fired off its clock t=%g", e.replica, e.at, d.clock)
			}
			if e.at < s.clock {
				return fmt.Errorf("serve: replica %d ready entry at t=%g fired behind the scheduler clock t=%g", e.replica, e.at, s.clock)
			}
			// Bound the engine call by the next entry: the earliest
			// pending event or the next-lagging replica's clock.
			until := math.Inf(1)
			if s.events.Len() > 0 {
				until = s.events[0].at
			}
			before := d.clock
			res, err := s.step(ctx, d, until)
			if err != nil {
				return err
			}
			// A stall — no iteration ran, nothing drained, the clock did
			// not move — would re-arm this entry at the same timestamp
			// forever (the classic symptom: a stolen or misplaced request
			// queued on a replica that can never admit it). Fail loudly
			// instead of spinning.
			if res.Batch == 0 && !d.eng.Idle() && d.clock == before {
				return fmt.Errorf("serve: replica %d stalled at t=%g with %d queued requests it cannot admit",
					e.replica, d.clock, d.eng.Pending())
			}
			s.wake(e.replica)
			if err := s.sched.onStep(e.replica, res); err != nil {
				return err
			}
			if err := s.sched.react(d.clock); err != nil {
				return err
			}
			continue
		}
		if s.sync == syncBarrier {
			if err := s.advanceAll(ctx, e.at); err != nil {
				return err
			}
		}
		heap.Pop(&s.events)
		if e.at < s.clock {
			return fmt.Errorf("serve: event kind %d at t=%g fired behind the scheduler clock t=%g", int(e.kind), e.at, s.clock)
		}
		if e.at > s.clock {
			s.clock = e.at
		}
		if err := s.sched.dispatch(ctx, e); err != nil {
			return err
		}
		if err := s.sched.react(e.at); err != nil {
			return err
		}
	}
}
