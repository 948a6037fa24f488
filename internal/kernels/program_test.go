package kernels

import (
	"fmt"
	"slices"
	"testing"

	"pimphony/internal/pim"
	"pimphony/internal/sched"
	"pimphony/internal/timing"
)

// kernelCase is one builder invocation: kernel 0 = QK^T, 1 = SV, 2 = GEMV
// (tokens = din, dh = dout).
type kernelCase struct {
	kernel, tokens, dh, queries int
	rowReuse                    bool
	buf                         Buffers
}

func (k kernelCase) String() string {
	return fmt.Sprintf("%s(tokens=%d dh=%d q=%d reuse=%v gbuf=%d out=%d)",
		[]string{"qkt", "sv", "gemv"}[k.kernel], k.tokens, k.dh, k.queries, k.rowReuse, k.buf.GBufEntries, k.buf.OutEntries)
}

// build runs the production builder and its oracle on the same shape.
func (k kernelCase) build(d timing.Device) (*pim.Program, *pim.Stack, error) {
	c := NewConfig(d, k.buf)
	p, s := new(pim.Program), new(pim.Stack)
	var err, oerr error
	switch k.kernel {
	case 0:
		err, oerr = c.QKT(p, k.tokens, k.dh, k.queries, k.rowReuse), oracleQKT(c, s, k.tokens, k.dh, k.queries, k.rowReuse)
	case 1:
		err, oerr = c.SV(p, k.tokens, k.dh, k.queries, k.rowReuse), oracleSV(c, s, k.tokens, k.dh, k.queries, k.rowReuse)
	default:
		err, oerr = c.GEMV(p, k.tokens, k.dh), oracleGEMV(c, s, k.tokens, k.dh)
	}
	if err != nil || oerr != nil {
		return nil, nil, fmt.Errorf("%v: builder error %v, oracle error %v", k, err, oerr)
	}
	return p, s, nil
}

// checkExpand requires the program to validate and to expand to the
// oracle stack command for command.
func checkExpand(t *testing.T, k kernelCase, p *pim.Program, s *pim.Stack) {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatalf("%v: program invalid: %v", k, err)
	}
	got := p.Expand()
	if len(got.Cmds) != len(s.Cmds) {
		t.Fatalf("%v: program expands to %d commands, oracle has %d", k, len(got.Cmds), len(s.Cmds))
	}
	if i := slices.IndexFunc(got.Cmds, func(c pim.Command) bool { return c != s.Cmds[c.ID] }); i >= 0 {
		t.Fatalf("%v: command %d is %+v, oracle %+v", k, i, got.Cmds[i], s.Cmds[i])
	}
	if StackStats(p) != StackStats(s.Program()) {
		t.Fatalf("%v: stats %+v, oracle %+v", k, StackStats(p), StackStats(s.Program()))
	}
}

// ladderCases are the attention shapes the ladder prices at 16K tokens
// per channel: each kernel, 1/4/8 queries, row reuse on and off, baseline
// and OBuf geometry.
func ladderCases(d timing.Device, tokens int) []kernelCase {
	var cs []kernelCase
	for kernel := 0; kernel < 2; kernel++ {
		for _, q := range []int{1, 4, 8} {
			for _, reuse := range []bool{false, true} {
				for _, buf := range []Buffers{BaselineBuffers(d), OBufBuffers(d)} {
					cs = append(cs, kernelCase{kernel, tokens, 128, q, reuse, buf})
				}
			}
		}
	}
	return cs
}

// TestProgramsExpandToOracle: for every ladder shape the periodic program
// expands to exactly the oracle's stack, and it is folded: it holds at
// most a quarter of the commands it expands to. Every controller
// schedules it to the flat stack's exact result while issuing at most
// half of the commands one by one.
func TestProgramsExpandToOracle(t *testing.T) {
	d := timing.AiM16()
	for _, k := range ladderCases(d, 16384) {
		p, s, err := k.build(d)
		if err != nil {
			t.Fatal(err)
		}
		checkExpand(t, k, p, s)
		held := 0
		for _, sg := range p.Segs {
			held += len(sg.Cmds)
		}
		if held*4 > len(s.Cmds) {
			t.Errorf("%v: program holds %d of %d commands; want a folded period", k, held, len(s.Cmds))
		}
		for _, sc := range fuzzSchedulers(d) {
			got, err := sc.Schedule(p)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sc.Schedule(s.Program())
			if err != nil {
				t.Fatal(err)
			}
			if got.Total != want.Total || got.Breakdown != want.Breakdown || got.NumMAC != want.NumMAC || got.NumIO != want.NumIO {
				t.Errorf("%v %s: program total %d %+v, flat %d %+v", k, sc.Name(), got.Total, got.Breakdown, want.Total, want.Breakdown)
			}
			if got.Scheduled*2 > len(s.Cmds) {
				t.Errorf("%v %s: issued %d of %d commands one by one; want the period skip to engage", k, sc.Name(), got.Scheduled, len(s.Cmds))
			}
		}
	}
}

// fuzzSchedulers are the four controllers perfmodel prices with: static,
// ping-pong, DCS and DCS without the is-MAC bypass.
func fuzzSchedulers(d timing.Device) []sched.Scheduler {
	return []sched.Scheduler{&sched.Static{Dev: d}, &sched.PingPong{Dev: d}, &sched.DCS{Dev: d}, &sched.DCS{Dev: d, DisableIsMAC: true}}
}

// FuzzProgramSchedule draws a kernel shape (tokens 1..20480, dh 1..256,
// 1..8 queries, row reuse), a buffer geometry (1..96 GBuf and 1..48
// accumulator entries: 1, 2 and odd counts included) and a controller.
// The periodic program must expand to the oracle builder's stack command
// for command, and scheduling it (skipping whole periods) must give the
// Total, Breakdown, NumMAC and NumIO of scheduling that stack flat.
func FuzzProgramSchedule(f *testing.F) {
	f.Add(uint8(0), uint16(4095), uint8(127), uint8(3), true, uint8(63), uint8(1), uint8(2))
	f.Add(uint8(1), uint16(999), uint8(99), uint8(2), false, uint8(0), uint8(0), uint8(1))
	f.Add(uint8(2), uint16(4095), uint8(255), uint8(0), false, uint8(4), uint8(2), uint8(0))
	d := timing.AiM16()
	f.Fuzz(func(t *testing.T, kernel uint8, tokens uint16, dh, queries uint8, rowReuse bool, gbuf, out, sc uint8) {
		k := kernelCase{
			kernel:   int(kernel % 3),
			tokens:   1 + int(tokens)%20480,
			dh:       1 + int(dh),
			queries:  1 + int(queries%8),
			rowReuse: rowReuse,
			buf:      Buffers{GBufEntries: 1 + int(gbuf%96), OutEntries: 1 + int(out%48)},
		}
		p, s, err := k.build(d)
		if err != nil {
			t.Fatal(err)
		}
		checkExpand(t, k, p, s)
		scheduler := fuzzSchedulers(d)[sc%4]
		got, err := scheduler.Schedule(p)
		if err != nil {
			t.Fatalf("%v %s: %v", k, scheduler.Name(), err)
		}
		want, err := scheduler.Schedule(s.Program())
		if err != nil {
			t.Fatalf("%v %s flat: %v", k, scheduler.Name(), err)
		}
		if got.Total != want.Total || got.Breakdown != want.Breakdown || got.NumMAC != want.NumMAC || got.NumIO != want.NumIO {
			t.Fatalf("%v %s: program schedule total %d breakdown %+v MAC %d IO %d; flat %d %+v MAC %d IO %d",
				k, scheduler.Name(), got.Total, got.Breakdown, got.NumMAC, got.NumIO,
				want.Total, want.Breakdown, want.NumMAC, want.NumIO)
		}
		if got.Scheduled > want.Scheduled {
			t.Fatalf("%v %s: scheduled %d commands, more than the flat %d", k, scheduler.Name(), got.Scheduled, want.Scheduled)
		}
	})
}
