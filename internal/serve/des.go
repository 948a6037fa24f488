// The discrete-event spine shared by the classic load-balanced
// simulator (serve.go) and the heterogeneous fleet simulator
// (fleet.go). Both paths run the same loop, which merges the sorted
// arrival schedule, read through a cursor, with one priority heap of
// typed events — prefill handoffs, migration and steal landings, fault
// and autoscaler timers, and replica-ready ticks — with every replica
// keeping an independent clock. What differs between the paths is only
// the synchronization discipline: how far other replicas must have
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
//     order. Each busy replica owns one ready entry at its clock;
//     popping it advances that replica bounded by the next heap entry
//     or arrival, which is exactly "the earliest pending event or the
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
// Event order. The heap holds small inline entries (time, key, aux);
// a global event's payload waits in a slab whose slots are reused, so a
// push or pop allocates nothing and compares no pointers. Entries order
// by (time, key): a global event's key is its push sequence number, a
// ready entry's is 1<<63 | replica, so global events come first at
// equal times, in FIFO order, and ready entries follow by replica
// index. Arrivals never enter the heap: the next one dispatches
// whenever it is due no later than the heap head. That is the order the
// heap would give them, since arrivals pushed up front would hold the
// smallest sequence numbers of the run.
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
	"context"
	"fmt"
	"math"

	"pimphony/internal/cluster"
	"pimphony/internal/sweep"
	"pimphony/internal/workload"
)

// eventKind labels a global event: everything the heap holds except
// the replicas' ready entries (see entry).
type eventKind int

const (
	// evArrival: a request enters the system at its schedule time. The
	// spine reads arrivals from the schedule, never from the heap.
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

// payload is what a global event carries besides its timestamp. It
// lives in the queue's slab while the event is pending.
type payload struct {
	kind eventKind
	rec  *record
	gen  int // evMigrated: tokens already generated (migration progress)
	dst  int // target decoder index; -1 = placement decides at dispatch
}

// event is one global event as the scheduler's dispatch sees it.
type event struct {
	at  float64
	arr workload.Arrival // evArrival: the arrival being routed
	payload
}

// readyKey marks a ready entry's key; the low bits hold its replica.
// A ready entry is a busy replica's next engine-call boundary — its
// clock. Popping it advances that replica by one engine call, bounded
// by the next entry; a leap cut short by Engine.SetHorizon simply
// re-arms the entry at the new clock, so horizon expiry needs no
// separate bookkeeping. Only the interleaved discipline arms these.
const readyKey = 1 << 63

// entry is one heap slot, kept small because the heap moves entries on
// every sift. key is the push sequence number of a global event, or
// readyKey|replica for a ready entry, so ordering by (at, key) is
// exactly (at, kind class, seq | replica): at equal timestamps global
// events dispatch before any replica advances past them (the scheduler
// must see the event at that boundary) and keep FIFO push order among
// themselves, and ready entries tie-break to the lowest replica index.
// aux is the slab slot of a global event's payload, or the arming
// generation of a ready entry: a stale generation means the replica was
// re-armed (its clock moved) and the entry is discarded on pop.
type entry struct {
	at  float64
	key uint64
	aux int
}

func (a entry) less(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.key < b.key
}

func (a entry) ready() bool  { return a.key&readyKey != 0 }
func (a entry) replica() int { return int(a.key &^ readyKey) }

// eventQueue is a binary min-heap of entries plus the slab holding the
// pending global events' payloads, whose freed slots are reused. Push
// and pop allocate nothing once the slices have grown to the run's
// peak depth. The sift steps are container/heap's, so entries with
// equal keys (a stale and a fresh ready entry of one replica at one
// clock) pop in the order container/heap would pop them.
type eventQueue struct {
	h    []entry
	slab []payload
	free []int // free slab slots, reused last-freed first
}

func (q *eventQueue) len() int { return len(q.h) }

// head is the earliest entry; the queue must be non-empty.
func (q *eventQueue) head() entry { return q.h[0] }

// pushEvent queues a global event with push sequence number seq.
func (q *eventQueue) pushEvent(at float64, seq uint64, p payload) {
	slot := len(q.slab)
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
		q.slab[slot] = p
	} else {
		q.slab = append(q.slab, p)
	}
	q.push(entry{at: at, key: seq, aux: slot})
}

// pushReady queues replica's ready entry of arming generation rgen.
func (q *eventQueue) pushReady(at float64, replica, rgen int) {
	q.push(entry{at: at, key: readyKey | uint64(replica), aux: rgen})
}

func (q *eventQueue) push(e entry) {
	q.h = append(q.h, e)
	q.up(len(q.h) - 1)
}

// pop removes the earliest entry. For a global event it also returns
// the payload and frees its slab slot.
func (q *eventQueue) pop() (entry, payload) {
	top := q.h[0]
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h = q.h[:n]
	q.down()
	if top.ready() {
		return top, payload{}
	}
	p := q.slab[top.aux]
	q.slab[top.aux] = payload{} // drop the record reference
	q.free = append(q.free, top.aux)
	return top, p
}

// up and down are container/heap's up and down (from the root) with the
// moved entry held aside instead of swapped at every level: the same
// comparisons, the same final layout.
func (q *eventQueue) up(j int) {
	h := q.h
	x := h[j]
	for j > 0 {
		i := (j - 1) / 2
		if !x.less(h[i]) {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = x
}

func (q *eventQueue) down() {
	h := q.h
	if len(h) == 0 {
		return
	}
	i := 0
	x := h[i]
	for {
		j := 2*i + 1
		if j >= len(h) {
			break
		}
		if j2 := j + 1; j2 < len(h) && h[j2].less(h[j]) {
			j = j2
		}
		if !h[j].less(x) {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = x
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
// replica set with independent clocks, the arrival schedule and the
// event heap.
type spine struct {
	tracker
	replicas []*replica
	sync     syncMode
	sched    scheduler
	// arrivals is the caller's validated, time-sorted schedule (not a
	// copy); next indexes the first arrival not yet dispatched.
	arrivals []workload.Arrival
	next     int
	events   eventQueue
	seq      uint64
	readyGen []int
	// cur holds the event being dispatched, so dispatch takes a pointer
	// without allocating one per event.
	cur event
	// clock is the scheduler's notion of now: the latest dispatched
	// event time.
	clock float64
}

// push schedules a handoff/migration/steal landing (or any other
// non-arrival global event).
func (s *spine) push(kind eventKind, rec *record, gen, dst int, at float64) {
	s.seq++
	s.events.pushEvent(at, s.seq, payload{kind: kind, rec: rec, gen: gen, dst: dst})
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
	s.events.pushReady(s.replicas[i].clock, i, s.readyGen[i])
}

// nextAt is the time of the next arrival or heap entry, whichever comes
// first (+Inf when neither remains).
func (s *spine) nextAt() float64 {
	t := math.Inf(1)
	if s.events.len() > 0 {
		t = s.events.head().at
	}
	if s.next < len(s.arrivals) && s.arrivals[s.next].At < t {
		t = s.arrivals[s.next].At
	}
	return t
}

// pendingProgress reports whether an arrival remains or the heap holds
// an event that can move work or create capacity. Fault chains,
// scale-eval timers and ready ticks do not count: an eternal fault
// chain must not keep a stalled simulation alive, and a bare timer
// resolves at its own dispatch.
func (s *spine) pendingProgress() bool {
	if s.next < len(s.arrivals) {
		return true
	}
	for _, e := range s.events.h {
		if e.ready() {
			continue
		}
		switch s.events.slab[e.aux].kind {
		case evFail, evRecover, evScaleEval:
		default:
			return true
		}
	}
	return false
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

// run is the event loop. It takes the globally earliest entry: the
// next arrival when it is due no later than the heap head, else the
// heap head. A ready entry advances its replica by one engine call
// bounded by the next entry, a global event is dispatched once the
// discipline's synchronization requirement holds — by construction for
// interleaved mode (a lagging busy replica's ready entry sorts first),
// by an explicit concurrent barrier advance for barrier mode, and
// vacuously for lazy mode (the dispatch advances its destination
// itself).
//
// Reading arrivals from the schedule instead of the heap is exact:
// were they pushed up front, every arrival would carry a smaller
// sequence number than any event pushed during the run, and global
// events already sort before ready entries, so an arrival wins every
// tie with the heap head.
func (s *spine) run(ctx context.Context) error {
	for {
		if s.next < len(s.arrivals) && (s.events.len() == 0 || s.arrivals[s.next].At <= s.events.head().at) {
			a := s.arrivals[s.next]
			s.next++
			s.cur = event{at: a.At, arr: a, payload: payload{kind: evArrival, rec: s.recs[a.Req.ID], dst: -1}}
			if err := s.fire(ctx); err != nil {
				return err
			}
			continue
		}
		if s.events.len() == 0 {
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
		e, p := s.events.pop()
		if !e.ready() {
			s.cur = event{at: e.at, payload: p}
			if err := s.fire(ctx); err != nil {
				return err
			}
			continue
		}
		i := e.replica()
		d := s.replicas[i]
		if e.aux != s.readyGen[i] || d.eng.Idle() {
			continue // re-armed or drained since push
		}
		// DES invariants, checked on every pop: a fresh ready entry sits
		// exactly at its replica's clock (wake re-arms on every clock
		// move, so a mismatch means a replica advanced without
		// re-arming), and no entry fires behind the scheduler clock (the
		// heap dispatched something out of order).
		if e.at != d.clock {
			return fmt.Errorf("serve: replica %d ready entry at t=%g fired off its clock t=%g", i, e.at, d.clock)
		}
		if e.at < s.clock {
			return fmt.Errorf("serve: replica %d ready entry at t=%g fired behind the scheduler clock t=%g", i, e.at, s.clock)
		}
		// Bound the engine call by the next entry: the earliest pending
		// event or arrival, or the next-lagging replica's clock.
		before := d.clock
		res, err := s.step(ctx, d, s.nextAt())
		if err != nil {
			return err
		}
		// A stall — no iteration ran, nothing drained, the clock did not
		// move — would re-arm this entry at the same timestamp forever
		// (the classic symptom: a stolen or misplaced request queued on a
		// replica that can never admit it). Fail loudly instead of
		// spinning.
		if res.Batch == 0 && !d.eng.Idle() && d.clock == before {
			return fmt.Errorf("serve: replica %d stalled at t=%g with %d queued requests it cannot admit",
				i, d.clock, d.eng.Pending())
		}
		s.wake(i)
		if err := s.sched.onStep(i, res); err != nil {
			return err
		}
		if err := s.sched.react(d.clock); err != nil {
			return err
		}
	}
}

// fire dispatches the global event in s.cur at its timestamp: in
// barrier mode every replica first advances to it, then the scheduler
// clock moves and the scheduler applies the event and reacts.
func (s *spine) fire(ctx context.Context) error {
	at := s.cur.at
	if s.sync == syncBarrier {
		if err := s.advanceAll(ctx, at); err != nil {
			return err
		}
	}
	if at < s.clock {
		return fmt.Errorf("serve: event kind %d at t=%g fired behind the scheduler clock t=%g", int(s.cur.kind), at, s.clock)
	}
	if at > s.clock {
		s.clock = at
	}
	if err := s.sched.dispatch(ctx, &s.cur); err != nil {
		return err
	}
	return s.sched.react(at)
}
