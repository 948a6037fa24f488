package serve

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"testing"

	"pimphony/internal/cluster"
	"pimphony/internal/timing"
	"pimphony/internal/workload"
)

// refEvent and refQueue are the reference event heap: pointer entries
// ordered through container/heap by (at, kind class, seq | replica),
// the queue eventQueue must pop in exactly the same order.
type refEvent struct {
	at      float64
	seq     int
	ready   bool
	replica int
	rgen    int
	kind    eventKind
	gen     int
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	a, b := q[i], q[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.ready != b.ready {
		return b.ready // the non-ready event first
	}
	if a.ready {
		return a.replica < b.replica
	}
	return a.seq < b.seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// xorshift is the tests' deterministic generator.
type xorshift uint64

func (s *xorshift) intn(m int) int {
	*s ^= *s << 13
	*s ^= *s >> 7
	*s ^= *s << 17
	return int(uint64(*s) % uint64(m))
}

// TestEventQueueMatchesContainerHeap drives eventQueue and the
// container/heap reference through the same random push/pop sequences
// and requires the same pop order. Timestamps come from a handful of
// values, so equal times across kinds are the common case; ready
// entries are often re-armed at the clock they already hold, leaving a
// stale and a fresh entry of one replica at one time; and pops free
// slab slots that later pushes reuse.
func TestEventQueueMatchesContainerHeap(t *testing.T) {
	for seed := 1; seed <= 40; seed++ {
		rng := xorshift(seed * 7919)
		var q eventQueue
		var ref refQueue
		var seq, live, peak int
		rgen := make([]int, 4)
		clock := make([]float64, 4)
		check := func(op int) {
			en, p := q.pop()
			want := heap.Pop(&ref).(*refEvent)
			got := refEvent{at: en.at, ready: en.ready()}
			if got.ready {
				got.replica, got.rgen = en.replica(), en.aux
			} else {
				got.seq, got.kind, got.gen = int(en.key), p.kind, p.gen
				live--
			}
			if want.ready {
				want = &refEvent{at: want.at, ready: true, replica: want.replica, rgen: want.rgen}
			}
			if got != *want {
				t.Fatalf("seed %d op %d: popped %+v, container/heap popped %+v", seed, op, got, *want)
			}
		}
		for op := 0; op < 3000; op++ {
			switch c := rng.intn(10); {
			case c < 4:
				seq++
				at := float64(rng.intn(6)) * 0.5
				kind := []eventKind{evHandoff, evMigrated, evStolen, evFail, evRetry, evScaleEval}[rng.intn(6)]
				q.pushEvent(at, uint64(seq), payload{kind: kind, gen: seq, dst: -1})
				heap.Push(&ref, &refEvent{at: at, seq: seq, kind: kind, gen: seq})
				if live++; live > peak {
					peak = live
				}
			case c < 7:
				r := rng.intn(len(rgen))
				if rng.intn(3) > 0 { // else re-arm at the same clock
					clock[r] += float64(rng.intn(3)) * 0.5
				}
				rgen[r]++
				q.pushReady(clock[r], r, rgen[r])
				heap.Push(&ref, &refEvent{at: clock[r], ready: true, replica: r, rgen: rgen[r]})
			default:
				if q.len() > 0 {
					check(op)
				}
			}
			if q.len() != ref.Len() {
				t.Fatalf("seed %d op %d: %d entries, container/heap %d", seed, op, q.len(), ref.Len())
			}
		}
		for q.len() > 0 {
			check(-1)
		}
		if len(q.slab) != peak || len(q.free) != peak {
			t.Fatalf("seed %d: slab %d slots, %d free; want %d (the peak pending count, every slot reused)",
				seed, len(q.slab), len(q.free), peak)
		}
	}
}

// TestEventQueueSteadyStateAllocs pins that a push+pop at a steady heap
// depth allocates nothing, for global events and ready entries alike.
func TestEventQueueSteadyStateAllocs(t *testing.T) {
	var q eventQueue
	for i := 0; i < 512; i++ {
		q.pushEvent(float64(i), uint64(i+1), payload{kind: evHandoff})
		q.pushReady(float64(i), i%8, i)
	}
	seq := uint64(1 << 20)
	allocs := testing.AllocsPerRun(1000, func() {
		seq++
		at := q.head().at
		q.pushEvent(at+1, seq, payload{kind: evMigrated})
		q.pop()
		q.pushReady(at+2, int(seq%8), int(seq))
		q.pop()
	})
	if allocs != 0 {
		t.Fatalf("steady-state push+pop allocates %v times, want 0", allocs)
	}
}

// BenchmarkEventQueue measures one pop plus one push at a steady depth
// of 10k entries (three global events to one ready entry), for the flat
// queue and for the container/heap reference it replaced.
func BenchmarkEventQueue(b *testing.B) {
	const depth = 10000
	delta := func(rng *xorshift) float64 { return float64(1+rng.intn(1000)) * 1e-3 }
	b.Run("flat", func(b *testing.B) {
		rng := xorshift(99)
		var q eventQueue
		seq := uint64(0)
		push := func(at float64) {
			if seq++; seq%4 == 0 {
				q.pushReady(at, int(seq%64), int(seq))
				return
			}
			q.pushEvent(at, seq, payload{kind: evHandoff, dst: -1})
		}
		for i := 0; i < depth; i++ {
			push(delta(&rng))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e, _ := q.pop()
			push(e.at + delta(&rng))
		}
	})
	b.Run("container-heap", func(b *testing.B) {
		rng := xorshift(99)
		var q refQueue
		seq := 0
		push := func(at float64) {
			if seq++; seq%4 == 0 {
				heap.Push(&q, &refEvent{at: at, ready: true, replica: seq % 64, rgen: seq})
				return
			}
			heap.Push(&q, &refEvent{at: at, seq: seq, kind: evHandoff})
		}
		for i := 0; i < depth; i++ {
			push(delta(&rng))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e := heap.Pop(&q).(*refEvent)
			push(e.at + delta(&rng))
		}
	})
}

// orderSched is a scheduler that only logs what the spine hands it.
type orderSched struct {
	s   *spine
	log []string
	// busyAt records, per dispatched arrival, whether replica 0 still
	// held work and where its clock stood.
	busyAt []string
}

func (o *orderSched) dispatch(_ context.Context, e *event) error {
	o.log = append(o.log, fmt.Sprintf("kind %d @%g", int(e.kind), e.at))
	if e.kind == evArrival {
		r := o.s.replicas[0]
		o.busyAt = append(o.busyAt, fmt.Sprintf("busy=%v behind=%v", !r.eng.Idle(), r.clock < e.at))
	}
	return nil
}
func (o *orderSched) onStep(i int, res cluster.StepResult) error {
	n := len(res.IterSeconds)
	if res.IterSeconds == nil {
		n = 1
	}
	o.log = append(o.log, fmt.Sprintf("step %d x%d", i, n))
	return nil
}
func (o *orderSched) react(float64) error     { return nil }
func (o *orderSched) idleWork() (bool, error) { return false, nil }

// TestArrivalDispatchesFirstAtEqualTime pins the cursor merge rule: an
// arrival due at the same time as a handoff, a fault and a ready entry
// dispatches before all three, because pushed up front it would have
// held the smallest sequence number. The next arrival also bounds the
// ready replica's engine call: one iteration carries the replica past
// it (unbounded, the call would leap 16), and the arrival then
// dispatches with the replica busy and caught up to it.
func TestArrivalDispatchesFirstAtEqualTime(t *testing.T) {
	sys, err := cluster.New(testSystem())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sys.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	busy := workload.Request{ID: 1, Context: 512, Decode: 64}
	if err := eng.Enqueue(busy); err != nil {
		t.Fatal(err)
	}
	const at = 1.0
	arrivals := []workload.Arrival{
		{At: at, Req: workload.Request{ID: 2, Context: 64, Decode: 1}},
		{At: math.Nextafter(at, 2), Req: workload.Request{ID: 3, Context: 64, Decode: 1}},
	}
	o := &orderSched{}
	s := &spine{
		tracker:  tracker{recs: map[int]*record{}},
		replicas: []*replica{{sys: sys, eng: eng, clock: at}},
		sync:     syncInterleaved,
		sched:    o,
		arrivals: arrivals,
		readyGen: make([]int, 1),
	}
	o.s = s
	for _, r := range []workload.Request{busy, arrivals[0].Req, arrivals[1].Req} {
		s.recs[r.ID] = &record{req: r, replica: -1}
	}
	// Run the admitting iteration now, so the ready step below could
	// leap the whole decode in one engine call if nothing bounded it.
	if _, err := s.step(t.Context(), s.replicas[0], math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	s.replicas[0].clock = at
	s.push(evHandoff, nil, 0, 0, at)
	s.push(evFail, nil, 0, 0, at)
	s.wake(0)
	if err := s.run(t.Context()); err != nil {
		t.Fatal(err)
	}
	want := []string{
		fmt.Sprintf("kind %d @%g", int(evArrival), at),
		fmt.Sprintf("kind %d @%g", int(evHandoff), at),
		fmt.Sprintf("kind %d @%g", int(evFail), at),
		"step 0 x1",
		fmt.Sprintf("kind %d @%g", int(evArrival), arrivals[1].At),
	}
	if len(o.log) < len(want) {
		t.Fatalf("dispatch log %q, want it to start %q", o.log, want)
	}
	for i := range want {
		if o.log[i] != want[i] {
			t.Fatalf("dispatch log %q, want it to start %q", o.log, want)
		}
	}
	if got := o.busyAt[1]; got != "busy=true behind=false" {
		t.Fatalf("at the second arrival replica 0 was %s; want busy=true behind=false", got)
	}
	if !eng.Idle() {
		t.Fatal("replica 0 still busy after the run drained")
	}
}

// TestPendingProgressCountsArrivals pins that the fleet's stall guards
// see undispatched arrivals as progress even when the heap is empty,
// as they did when every arrival sat in the heap.
func TestPendingProgressCountsArrivals(t *testing.T) {
	fs, err := newFleetSim(Config{
		Fleet:        []ReplicaSpec{{System: testSystem(), Count: 2, Role: RoleUnified}},
		Interconnect: timing.DefaultInterconnect(),
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	fs.arrivals = []workload.Arrival{{At: 0, Req: workload.Request{ID: 1, Context: 8, Decode: 1}}}
	if fs.events.len() != 0 || !fs.pendingProgress() || fs.faultQuiescent() {
		t.Fatalf("arrival pending, empty heap: pendingProgress %v faultQuiescent %v; want true, false",
			fs.pendingProgress(), fs.faultQuiescent())
	}
	fs.next = len(fs.arrivals)
	if fs.pendingProgress() || !fs.faultQuiescent() {
		t.Fatalf("schedule consumed, empty heap: pendingProgress %v faultQuiescent %v; want false, true",
			fs.pendingProgress(), fs.faultQuiescent())
	}
	fs.push(evFail, nil, 0, 0, 1)
	fs.push(evScaleEval, nil, 0, -1, 1)
	fs.readyGen[0]++
	fs.events.pushReady(1, 0, fs.readyGen[0])
	if fs.pendingProgress() || !fs.faultQuiescent() {
		t.Fatal("fault, timer and ready entries counted as progress")
	}
	fs.push(evRetry, nil, 0, -1, 2)
	if !fs.pendingProgress() || fs.faultQuiescent() {
		t.Fatal("a pending retry not counted as progress")
	}
}
