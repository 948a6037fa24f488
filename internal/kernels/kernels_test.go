package kernels

import (
	"reflect"
	"testing"
	"testing/quick"

	"pimphony/internal/pim"
	"pimphony/internal/sched"
	"pimphony/internal/timing"
)

func cfg(t *testing.T, baseline bool) Config {
	t.Helper()
	d := timing.AiM16()
	if baseline {
		return NewConfig(d, BaselineBuffers(d))
	}
	return NewConfig(d, OBufBuffers(d))
}

// gemv, qkt and sv run a builder into a fresh program.
func gemv(c Config, din, dout int) (*pim.Program, error) {
	s := new(pim.Program)
	return s, c.GEMV(s, din, dout)
}

func qkt(c Config, tokens, dh, queries int, rowReuse bool) (*pim.Program, error) {
	s := new(pim.Program)
	return s, c.QKT(s, tokens, dh, queries, rowReuse)
}

func sv(c Config, tokens, dh, queries int, rowReuse bool) (*pim.Program, error) {
	s := new(pim.Program)
	return s, c.SV(s, tokens, dh, queries, rowReuse)
}

func TestGEMVCommandCounts(t *testing.T) {
	c := cfg(t, false)
	s, err := gemv(c, 128, 128)
	if err != nil {
		t.Fatal(err)
	}
	st := StackStats(s)
	// 128/16 = 8 input tiles, written once (fits GBuf, reused across groups).
	if st.WrInp != 8 {
		t.Errorf("WrInp = %d, want 8", st.WrInp)
	}
	// 128/16 banks = 8 groups x 8 tiles = 64 MACs.
	if st.Mac != 64 {
		t.Errorf("Mac = %d, want 64", st.Mac)
	}
	if st.RdOut != 8 {
		t.Errorf("RdOut = %d, want 8 (one per group)", st.RdOut)
	}
	// 64 weight tiles per bank = exactly one 64-tile row.
	if st.Act != 1 {
		t.Errorf("Act = %d, want 1", st.Act)
	}
}

func TestGEMVBlockedMappingWritesInputsOnce(t *testing.T) {
	d := timing.AiM16()
	small := NewConfig(d, Buffers{GBufEntries: 4, OutEntries: 8})
	s, err := gemv(small, 128, 64) // 8 input tiles > 4 GBuf entries -> 2 blocks
	if err != nil {
		t.Fatal(err)
	}
	st := StackStats(s)
	// The blocked mapping streams each input tile exactly once; group
	// partial sums stay resident across blocks (8 accumulators >= 4 groups).
	if st.WrInp != 8 {
		t.Errorf("WrInp = %d, want 8 (one write per input tile)", st.WrInp)
	}
	if st.RdOut != 4 {
		t.Errorf("RdOut = %d, want 4 (one drain per completed group)", st.RdOut)
	}
}

func TestGEMVPartialDrainsWhenAccumulatorsScarce(t *testing.T) {
	d := timing.AiM16()
	tight := NewConfig(d, Buffers{GBufEntries: 4, OutEntries: 2})
	s, err := gemv(tight, 128, 64) // 4 groups but only 2 accumulators
	if err != nil {
		t.Fatal(err)
	}
	st := StackStats(s)
	// Evictions force partial drains: more RD-OUTs than groups.
	if st.RdOut <= 4 {
		t.Errorf("RdOut = %d, want > 4 (partial-sum drains)", st.RdOut)
	}
	if st.WrInp != 8 {
		t.Errorf("WrInp = %d, want 8", st.WrInp)
	}
}

func TestGEMVMACCountInvariant(t *testing.T) {
	c := cfg(t, false)
	f := func(a, b uint16) bool {
		din := int(a%256)*16 + 16
		dout := int(b%256)*16 + 16
		s, err := gemv(c, din, dout)
		if err != nil {
			return false
		}
		st := StackStats(s)
		wantMACs := ceilDiv(din, 16) * ceilDiv(dout, 16)
		return st.Mac == wantMACs && st.Act == st.Pre
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestGEMVRejectsBadDims(t *testing.T) {
	c := cfg(t, false)
	if _, err := gemv(c, 0, 16); err == nil {
		t.Error("GEMV(0,16) should fail")
	}
	if _, err := gemv(c, 16, -1); err == nil {
		t.Error("GEMV(16,-1) should fail")
	}
}

func TestQKTCounts(t *testing.T) {
	c := cfg(t, false)
	tokens, dh := 1024, 128
	s, err := qkt(c, tokens, dh, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	st := StackStats(s)
	groups := tokens / 16 // 64 groups of 16 keys
	if st.Mac != groups*8 {
		t.Errorf("Mac = %d, want %d", st.Mac, groups*8)
	}
	if st.RdOut != groups {
		t.Errorf("RdOut = %d, want %d", st.RdOut, groups)
	}
	if st.WrInp != 8 { // query tiles written once
		t.Errorf("WrInp = %d, want 8", st.WrInp)
	}
}

func TestQKTRowReuseTradesActForWrInp(t *testing.T) {
	c := cfg(t, false)
	tokens, dh, g := 2048, 128, 8
	reuse, err := qkt(c, tokens, dh, g, true)
	if err != nil {
		t.Fatal(err)
	}
	noReuse, err := qkt(c, tokens, dh, g, false)
	if err != nil {
		t.Fatal(err)
	}
	r, n := StackStats(reuse), StackStats(noReuse)
	if r.Act >= n.Act {
		t.Errorf("row-reuse should reduce ACT count: reuse=%d noReuse=%d", r.Act, n.Act)
	}
	if r.WrInp <= n.WrInp {
		t.Errorf("row-reuse should increase WR-INP count: reuse=%d noReuse=%d", r.WrInp, n.WrInp)
	}
	if r.Mac != n.Mac {
		t.Errorf("mapping must not change MAC count: reuse=%d noReuse=%d", r.Mac, n.Mac)
	}
}

func TestSVBaselineRestreamsScores(t *testing.T) {
	d := timing.AiM16()
	base := NewConfig(d, BaselineBuffers(d))
	obuf := NewConfig(d, OBufBuffers(d))
	tokens, dh := 2048, 128

	sb, err := sv(base, tokens, dh, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	so, err := sv(obuf, tokens, dh, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	b, o := StackStats(sb), StackStats(so)
	chunks := tokens / 16
	groups := dh / 16
	// Baseline OutReg holds 2 accumulators -> groups/2 streaming passes.
	if b.WrInp != chunks*groups/2 {
		t.Errorf("baseline WrInp = %d, want %d (4 passes)", b.WrInp, chunks*groups/2)
	}
	// OBuf holds all 8 groups -> one pass.
	if o.WrInp != chunks {
		t.Errorf("obuf WrInp = %d, want %d (single pass)", o.WrInp, chunks)
	}
	if b.Mac != o.Mac {
		t.Errorf("MAC counts must match: baseline=%d obuf=%d", b.Mac, o.Mac)
	}
}

func TestSVRowReuseStreamsPerRowVisit(t *testing.T) {
	c := cfg(t, false)
	tokens, dh, g := 1024, 128, 4
	reuse, err := sv(c, tokens, dh, g, true)
	if err != nil {
		t.Fatal(err)
	}
	noReuse, err := sv(c, tokens, dh, g, false)
	if err != nil {
		t.Fatal(err)
	}
	r, n := StackStats(reuse), StackStats(noReuse)
	if r.Act >= n.Act {
		t.Errorf("row-reuse should reduce ACTs: reuse=%d noReuse=%d", r.Act, n.Act)
	}
	if r.Mac != n.Mac {
		t.Errorf("MAC count must be mapping-invariant: %d vs %d", r.Mac, n.Mac)
	}
}

// TestAttentionMACWork checks the fundamental work invariant: both QKT and
// SV perform queries * ceil(tokens/banks-or-elems) * dh-derived MAC counts
// regardless of mapping or buffers.
func TestAttentionMACWork(t *testing.T) {
	d := timing.AiM16()
	f := func(a, b uint8, baseline, reuse bool) bool {
		tokens := (int(a%32) + 1) * 64
		g := []int{1, 2, 4, 8}[b%4]
		var c Config
		if baseline {
			c = NewConfig(d, BaselineBuffers(d))
		} else {
			c = NewConfig(d, OBufBuffers(d))
		}
		qkt, err := qkt(c, tokens, 128, g, reuse)
		if err != nil {
			return false
		}
		sv, err := sv(c, tokens, 128, g, reuse)
		if err != nil {
			return false
		}
		wantQKT := g * (tokens / 16) * 8
		wantSV := g * (tokens / 16) * 8
		return StackStats(qkt).Mac == wantQKT && StackStats(sv).Mac == wantSV
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestDCSBeatsStaticOnAttention: the headline DCS claim must hold on the
// kernels it was designed for.
func TestDCSBeatsStaticOnAttention(t *testing.T) {
	d := timing.AiM16()
	c := NewConfig(d, OBufBuffers(d))
	for _, build := range []struct {
		name string
		f    func() (*pim.Program, error)
	}{
		{"qkt", func() (*pim.Program, error) { return qkt(c, 2048, 128, 4, true) }},
		{"sv", func() (*pim.Program, error) { return sv(c, 2048, 128, 4, true) }},
		{"gemv", func() (*pim.Program, error) { return gemv(c, 4096, 4096) }},
	} {
		s1, err := build.f()
		if err != nil {
			t.Fatalf("%s: %v", build.name, err)
		}
		s2, _ := build.f()
		st, err := (&sched.Static{Dev: d}).Schedule(s1)
		if err != nil {
			t.Fatalf("%s static: %v", build.name, err)
		}
		dc, err := (&sched.DCS{Dev: d}).Schedule(s2)
		if err != nil {
			t.Fatalf("%s dcs: %v", build.name, err)
		}
		if dc.Total >= st.Total {
			t.Errorf("%s: DCS (%d) not faster than static (%d)", build.name, dc.Total, st.Total)
		}
		speedup := float64(st.Total) / float64(dc.Total)
		t.Logf("%s: static=%d dcs=%d speedup=%.2fx macUtil %.1f%% -> %.1f%%",
			build.name, st.Total, dc.Total, speedup,
			100*st.MACUtilization(), 100*dc.MACUtilization())
	}
}

func TestStacksValidate(t *testing.T) {
	c := cfg(t, true)
	builders := map[string]func() (*pim.Program, error){
		"gemv-small": func() (*pim.Program, error) { return gemv(c, 48, 32) },
		"gemv-odd":   func() (*pim.Program, error) { return gemv(c, 100, 100) },
		"qkt-odd":    func() (*pim.Program, error) { return qkt(c, 1000, 100, 3, true) },
		"sv-odd":     func() (*pim.Program, error) { return sv(c, 1000, 100, 3, false) },
	}
	for name, b := range builders {
		s, err := b()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s produced invalid stack: %v", name, err)
		}
	}
}

func TestBaselineBufferGeometry(t *testing.T) {
	d := timing.AiM16()
	b := BaselineBuffers(d)
	if b.OutEntries != 2 {
		t.Errorf("baseline OutEntries = %d, want 2 (4-byte OutReg)", b.OutEntries)
	}
	o := OBufBuffers(d)
	if o.OutEntries <= b.OutEntries {
		t.Errorf("OBuf (%d) must be larger than OutReg (%d)", o.OutEntries, b.OutEntries)
	}
}

// TestBuildersRefillReusedStack: a builder resets the program it is given,
// so a program that held a larger kernel (and a different geometry) yields
// exactly the commands a fresh program does.
func TestBuildersRefillReusedStack(t *testing.T) {
	base, obuf := cfg(t, true), cfg(t, false)
	builds := []struct {
		name string
		f    func(*pim.Program) error
	}{
		{"gemv-small", func(s *pim.Program) error { return base.GEMV(s, 48, 32) }},
		{"qkt-gqa", func(s *pim.Program) error { return obuf.QKT(s, 1000, 100, 3, true) }},
		{"sv-reuse", func(s *pim.Program) error { return base.SV(s, 1000, 100, 3, true) }},
		{"sv-odd", func(s *pim.Program) error { return obuf.SV(s, 1000, 100, 3, false) }},
	}
	reused := new(pim.Program)
	for _, b := range builds {
		if err := obuf.QKT(reused, 16384, 128, 4, false); err != nil {
			t.Fatal(err)
		}
		if err := b.f(reused); err != nil {
			t.Fatalf("%s into reused stack: %v", b.name, err)
		}
		fresh := new(pim.Program)
		if err := b.f(fresh); err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		if !reflect.DeepEqual(reused.Expand(), fresh.Expand()) {
			t.Errorf("%s: reused stack (%d cmds, %d/%d entries) differs from fresh (%d cmds, %d/%d entries)",
				b.name, reused.Len(), reused.GBufEntries, reused.OutEntries,
				fresh.Len(), fresh.GBufEntries, fresh.OutEntries)
		}
	}
}
