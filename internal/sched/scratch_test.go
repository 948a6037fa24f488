package sched

import (
	"reflect"
	"testing"

	"pimphony/internal/kernels"
	"pimphony/internal/pim"
	"pimphony/internal/timing"
)

// largeStack builds a GQA row-reuse QK^T stack (tens of thousands of
// commands with ACT/PRE, drains and re-streamed inputs), expanded flat so
// every command is scheduled: far larger than the small stacks, so the
// scratch it leaves in the pool is oversized and dirty for whatever is
// scheduled next.
func largeStack(t *testing.T) *pim.Stack {
	t.Helper()
	d := timing.AiM16()
	p := new(pim.Program)
	if err := kernels.NewConfig(d, kernels.BaselineBuffers(d)).QKT(p, 8192, 128, 4, true); err != nil {
		t.Fatal(err)
	}
	return p.Expand()
}

// TestScratchReuseIsInvisible: the engine's pooled scratch keeps no state
// between schedulings. Scheduling a small stack, then a large one, then
// the small one again must reproduce the first Result exactly, for every
// controller.
func TestScratchReuseIsInvisible(t *testing.T) {
	d := timing.AiM16()
	large := largeStack(t)
	smalls := map[string]*pim.Stack{
		"fig7":      fig7Stack(),
		"random":    randomStack(7, 200),
		"streaming": streamingStack(64, 4),
		"rows":      rowStack(3, 4),
	}
	for _, sc := range []Scheduler{&Static{Dev: d}, &PingPong{Dev: d}, &DCS{Dev: d}, &DCS{Dev: d, DisableIsMAC: true}} {
		for name, small := range smalls {
			first, err := sc.Schedule(small.Program())
			if err != nil {
				t.Fatalf("%s %s: %v", sc.Name(), name, err)
			}
			if _, err := sc.Schedule(large.Program()); err != nil {
				t.Fatalf("%s large: %v", sc.Name(), err)
			}
			again, err := sc.Schedule(small.Program())
			if err != nil {
				t.Fatalf("%s %s again: %v", sc.Name(), name, err)
			}
			if !reflect.DeepEqual(first, again) {
				t.Errorf("%s %s: rescheduling after a large stack changed the result: total %d -> %d, breakdown %+v -> %+v",
					sc.Name(), name, first.Total, again.Total, first.Breakdown, again.Breakdown)
			}
		}
	}
}

// TestFig7AfterLargeStack: the Fig. 7 calibration (34 cycles static, 22
// cycles DCS) holds after a large stack has gone through the pool.
func TestFig7AfterLargeStack(t *testing.T) {
	d := devNoRefresh()
	if _, err := (&DCS{Dev: d}).Schedule(largeStack(t).Program()); err != nil {
		t.Fatal(err)
	}
	st, err := (&Static{Dev: d}).Schedule(fig7Stack().Program())
	if err != nil {
		t.Fatal(err)
	}
	dc, err := (&DCS{Dev: d}).Schedule(fig7Stack().Program())
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != 34 || dc.Total != 22 {
		t.Errorf("Fig. 7 after a large stack: static %d dcs %d cycles, want 34 and 22", st.Total, dc.Total)
	}
}
