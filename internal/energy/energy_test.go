package energy

import (
	"testing"

	"pimphony/internal/kernels"
	"pimphony/internal/pim"
	"pimphony/internal/sched"
	"pimphony/internal/timing"
)

func TestBreakdownArithmetic(t *testing.T) {
	b := Breakdown{MAC: 1, IO: 2, Background: 3, Else: 4}
	if b.Total() != 10 {
		t.Fatalf("Total = %f", b.Total())
	}
	b.Add(Breakdown{MAC: 1})
	if b.MAC != 2 {
		t.Fatal("Add broken")
	}
	s := b.Scale(2)
	if s.IO != 4 || s.Else != 8 {
		t.Fatal("Scale broken")
	}
	if got := (Breakdown{}).BackgroundShare(); got != 0 {
		t.Fatalf("empty share = %f", got)
	}
}

// TestBackgroundShareCollapsesWithDCS reproduces the Fig. 16 mechanism:
// the static schedule's long runtime makes background energy a large share;
// DCS shrinks runtime, so the share collapses while dynamic energy stays
// identical (same command counts).
func TestBackgroundShareCollapsesWithDCS(t *testing.T) {
	dev := timing.AiM16()
	m := Default()
	cfg := kernels.NewConfig(dev, kernels.BaselineBuffers(dev))
	stack := new(pim.Stack)
	if err := cfg.SV(stack, 4096, 128, 1, false); err != nil {
		t.Fatal(err)
	}
	st, err := (&sched.Static{Dev: dev}).Schedule(stack)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := kernels.NewConfig(dev, kernels.OBufBuffers(dev))
	stack2 := new(pim.Stack)
	if err := cfg2.SV(stack2, 4096, 128, 1, false); err != nil {
		t.Fatal(err)
	}
	dc, err := (&sched.DCS{Dev: dev}).Schedule(stack2)
	if err != nil {
		t.Fatal(err)
	}
	eStatic := m.ForStack(dev, stack, st)
	eDCS := m.ForStack(dev, stack2, dc)
	if eDCS.BackgroundShare() >= eStatic.BackgroundShare() {
		t.Errorf("background share should collapse: static %.2f dcs %.2f",
			eStatic.BackgroundShare(), eDCS.BackgroundShare())
	}
	if eDCS.MAC != eStatic.MAC {
		t.Errorf("MAC energy must be schedule-invariant: %f vs %f", eStatic.MAC, eDCS.MAC)
	}
	if eDCS.Total() >= eStatic.Total() {
		t.Error("total energy should drop with the shorter schedule")
	}
}

func TestForAggregateConsistency(t *testing.T) {
	dev := timing.AiM16()
	m := Default()
	b := m.ForAggregate(dev, 1000, 32000, 10, 16, 100000)
	if b.MAC != 1000*m.MACpJ {
		t.Errorf("MAC energy = %f", b.MAC)
	}
	if b.IO != 32000*m.IOpJPerByte {
		t.Errorf("IO energy = %f", b.IO)
	}
	wantBg := m.BackgroundWPerChannel * 100e-6 * 1e12 * 16
	if diff := b.Background - wantBg; diff > 1 || diff < -1 {
		t.Errorf("background = %f, want %f", b.Background, wantBg)
	}
	if b.Else <= 0 {
		t.Error("else category must include ACT/PRE and cell reads")
	}
}

func TestLongerRuntimeCostsMoreBackground(t *testing.T) {
	dev := timing.AiM16()
	m := Default()
	short := m.ForAggregate(dev, 100, 100, 1, 16, 1000)
	long := m.ForAggregate(dev, 100, 100, 1, 16, 100000)
	if long.Background <= short.Background {
		t.Error("background energy must scale with runtime")
	}
	if long.MAC != short.MAC {
		t.Error("dynamic energy must not depend on runtime")
	}
}
