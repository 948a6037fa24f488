package cluster

import (
	"context"
	"math"
	"testing"

	"pimphony/internal/workload"
)

// TestLeapAllocFree: a warmed engine's Leap over a stable TCP batch
// allocates nothing. The stepper prices the leap as one run pooled on
// it, and the engine's snapshot, event and duration lists reuse their
// scratch. A first engine on the same System walks the same token range
// so every slice shape is already in the stepper's memo; a second one
// repeats it under measurement.
func TestLeapAllocFree(t *testing.T) {
	cfg := engineConfig(t, PIMphony())
	cfg.Tech.DPA = false // static reservations: no chunk growth between leaps
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reqs := workload.NewGenerator(workload.QMSum(), 5).Batch(8)
	for i := range reqs {
		reqs[i].Decode = 1 << 20 // decodes to the context window
	}
	const runs = 200
	leaps := func(e *Engine, k int) {
		for i := 0; i < k; i++ {
			if _, err := e.Leap(context.Background(), 0, math.Inf(1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	newEngine := func() *Engine {
		e, err := sys.NewEngine()
		if err != nil {
			t.Fatal(err)
		}
		e.SetHorizon(48)
		for _, r := range reqs {
			if err := e.Enqueue(r); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	leaps(newEngine(), runs+8)
	e := newEngine()
	leaps(e, 4) // admission and the scratch buffers' first growth
	stable := e.Active()
	if a := testing.AllocsPerRun(runs, func() { leaps(e, 1) }); a != 0 {
		t.Errorf("Leap allocated %v times per call", a)
	}
	if e.Active() != stable || e.Steps() < runs*8 {
		t.Fatalf("batch not stable through the measurement: %d active (was %d), %d steps", e.Active(), stable, e.Steps())
	}
}

// TestRequeueFrontAllocFree: a preemption puts its victim back at the
// head of the pending queue in place, so a requeue into a queue with
// spare capacity allocates nothing and keeps the queue's order.
func TestRequeueFrontAllocFree(t *testing.T) {
	cfg := engineConfig(t, Technique{TCP: true, DCS: true})
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ad, err := sys.newAdmitter(nil)
	if err != nil {
		t.Fatal(err)
	}
	victim := workload.Request{ID: 1, Context: 1000, Decode: 8}
	queued := workload.Request{ID: 2, Context: 1000, Decode: 8}
	queue := make([]workload.Request, 1, 4)
	requeue := func() {
		if err := ad.alloc.Admit(victim.ID, victim.Context); err != nil {
			t.Fatal(err)
		}
		ad.active = append(ad.active[:0], victim)
		queue[0] = queued
		ad.pending = queue[:1]
		if err := ad.requeueFront(victim.ID); err != nil {
			t.Fatal(err)
		}
	}
	if a := testing.AllocsPerRun(100, requeue); a != 0 {
		t.Errorf("requeueFront allocated %v times per call", a)
	}
	if len(ad.active) != 0 || len(ad.pending) != 2 || ad.pending[0] != victim || ad.pending[1] != queued {
		t.Fatalf("after requeue: active %v, pending %v; want [] and [victim queued]", ad.active, ad.pending)
	}
}
