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
