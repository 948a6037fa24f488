// Package sched implements the three PIM command controllers compared in the
// paper: the conventional static in-order controller, a ping-pong
// (dual-region) buffering controller, and PIMphony's Dynamic PIM Command
// Scheduling (DCS) controller with per-buffer-entry dependency tracking.
//
// All controllers consume a pim.Program (one channel's command stream as
// segments: a body of commands, a repeat count and a row shift per
// repeat; a flat pim.Stack is the one-segment case) and produce a Result
// with the total latency, a latency breakdown in the categories of the
// paper's Fig. 8/9 (MAC, ACT/PRE, REF, DT-GBuf, DT-OutReg, pipeline
// penalty), the MAC-unit utilization and, for a flat program, per-command
// issue times and binding constraints.
//
// Period skip. A controller reads the program's commands as it needs
// them. At its first step in each repeat of a body repeated three or more
// times it takes a snapshot of its state relative to that repeat:
//
//   - the two queues' free times (ioFree, macFree);
//   - both queue heads, relative to the repeat's first command, since the
//     I/O queue runs ahead of the compute queue;
//   - the latency tally (schedule end, last MAC issue, counts);
//   - every command a later dependency edge can still reference: each
//     D-Table entry and each edge of a read but unissued command.
//
// Times are taken relative to min(ioFree, macFree). A referenced bound
// at or below that minimum is clamped to one sentinel: both free times
// only grow and no command issues before its queue is free, so such a
// bound can never bind again (without the clamp an old prologue WR-INP
// would keep the state from ever repeating). The static controller's
// snapshot is its last issue time, the previous command's kind and the
// tally. When a snapshot equals the previous repeat's, shifted by Δ, the
// controller is in steady state: it adds m·Δ to every live time and m
// times one period's Breakdown, NumMAC and NumIO for the m whole periods
// left in the body, then schedules the tail normally. The controllers are
// deterministic and their dependency pattern is translation-invariant, so
// the skip is exact. The MAC-gap attribution and the end of the schedule
// are accumulated while MACs issue, in program order, so the refresh
// stretch still applies last to an exact end.
//
// Timing semantics (calibrated to reproduce the paper's Fig. 7 example,
// 34 cycles static and 22 cycles DCS):
//
//   - The I/O data bus pipelines 32 B tiles: consecutive WR-INP/RD-OUT
//     issues are at least tCCDS apart. The MAC pipeline likewise accepts one
//     MAC per tCCDS.
//   - A command's effect completes execLatency(kind) cycles after issue
//     (tWR-INP, tMAC, tRD-OUT, tRCD, tRP).
//   - A RD-OUT additionally waits tOBufCommit for the last accumulate to
//     commit into the output buffer.
//   - The static controller issues strictly in order and separates
//     consecutive commands by the predecessor's fixed execution time, except
//     for same-kind I/O streams which pipeline at tCCDS (Sec. V-A).
//   - DCS splits commands into an I/O transfer queue and a compute queue,
//     issues out of order across queues, in order within each queue, and
//     waits only on true per-entry dependencies recorded in the D-Table.
//     Consecutive MACs to the same output entry chain at tCCDS (is-MAC flag).
//   - Ping-pong halves GBuf and the output registers into two regions and
//     tracks dependencies at region granularity only, reproducing the
//     hand-off stalls of dual-buffering schemes (Sec. VIII-C, Fig. 18).
package sched

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"pimphony/internal/pim"
	"pimphony/internal/timing"
)

// Reason says which constraint was binding when a command was issued. It
// drives the latency-breakdown attribution.
type Reason uint8

const (
	// ReasonNone: the command issued as soon as its pipeline allowed.
	ReasonNone Reason = iota
	// ReasonBus: the command waited for its issue pipeline (I/O bus or MAC
	// pipeline) to free up.
	ReasonBus
	// ReasonDepWR: waited for a WR-INP to complete (input transfer).
	ReasonDepWR
	// ReasonDepRD: waited for an RD-OUT to complete (output drain).
	ReasonDepRD
	// ReasonDepMAC: waited for a MAC to complete.
	ReasonDepMAC
	// ReasonRow: waited for a row activate/precharge.
	ReasonRow
	// ReasonInOrder: waited for queue order (static program order).
	ReasonInOrder
)

// String implements fmt.Stringer.
func (r Reason) String() string {
	switch r {
	case ReasonNone:
		return "none"
	case ReasonBus:
		return "bus"
	case ReasonDepWR:
		return "dep-wrinp"
	case ReasonDepRD:
		return "dep-rdout"
	case ReasonDepMAC:
		return "dep-mac"
	case ReasonRow:
		return "row"
	case ReasonInOrder:
		return "in-order"
	default:
		return fmt.Sprintf("Reason(%d)", uint8(r))
	}
}

// Breakdown decomposes a schedule's total latency into the categories used
// by the paper's Fig. 8 and Fig. 9. All components sum to Total.
type Breakdown struct {
	MAC      timing.Cycles // cycles the MAC pipeline was genuinely busy
	ActPre   timing.Cycles // stalls waiting on DRAM activate/precharge
	Refresh  timing.Cycles // refresh overhead (tRFC/tREFI stretch)
	DTGBuf   timing.Cycles // stalls waiting on input transfers into GBuf
	DTOutReg timing.Cycles // stalls waiting on output drains from OutReg/OBuf
	Penalty  timing.Cycles // cumulative pipeline penalty (other stalls)
}

// Total is the sum of all breakdown components.
func (b Breakdown) Total() timing.Cycles {
	return b.MAC + b.ActPre + b.Refresh + b.DTGBuf + b.DTOutReg + b.Penalty
}

// Add accumulates another breakdown into this one.
func (b *Breakdown) Add(o Breakdown) {
	b.MAC += o.MAC
	b.ActPre += o.ActPre
	b.Refresh += o.Refresh
	b.DTGBuf += o.DTGBuf
	b.DTOutReg += o.DTOutReg
	b.Penalty += o.Penalty
}

// Result is the outcome of scheduling one command program.
type Result struct {
	Scheduler string
	Total     timing.Cycles // end-to-end latency including refresh stretch
	// Issue and Reasons hold each command's issue cycle and binding
	// constraint, indexed by command ID, for a flat program (no repeated
	// segment); they are nil when whole periods were skipped.
	Issue     []timing.Cycles
	Reasons   []Reason
	Breakdown Breakdown
	NumMAC    int
	NumIO     int
	// Scheduled counts the commands the engine issued one by one; the
	// rest of the program's commands were skipped as whole periods.
	Scheduled int
}

// MACUtilization is the fraction of the total latency during which the MAC
// pipeline was busy.
func (r *Result) MACUtilization() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Breakdown.MAC) / float64(r.Total)
}

// newResult allocates the Result of scheduling p, with per-command issue
// slices when the program is flat.
func newResult(name string, p *pim.Program) *Result {
	res := &Result{Scheduler: name}
	if p.Flat() {
		n := p.Len()
		res.Issue, res.Reasons = make([]timing.Cycles, n), make([]Reason, n)
	}
	return res
}

// record stores a flat program's per-command issue data.
func (r *Result) record(id int, t timing.Cycles, why Reason) {
	if r.Issue != nil {
		r.Issue[id], r.Reasons[id] = t, why
	}
}

// Scheduler schedules a command program onto one PIM channel.
type Scheduler interface {
	Name() string
	Schedule(p *pim.Program) (*Result, error)
}

// execLatency is the completion latency of a command kind.
func execLatency(d *timing.Device, k pim.Kind) timing.Cycles {
	switch k {
	case pim.WRINP:
		return d.TWRINP
	case pim.MAC:
		return d.TMAC
	case pim.RDOUT:
		return d.TRDOUT
	case pim.ACT:
		return d.TRCD
	case pim.PRE:
		return d.TRP
	default:
		return d.TCCDS
	}
}

// inf is the issue bound of a command waiting on an unissued dependee;
// unissued marks such a dependee's issue time.
const (
	inf      = timing.Cycles(math.MaxInt64 / 4)
	unissued = timing.Cycles(-1)
)

// ---------------------------------------------------------------------------
// Program walk, accounting and period skip (shared by every controller)
// ---------------------------------------------------------------------------

// cursor walks a program's expanded command stream in order. It hands out
// body commands unshifted: no controller reads a command's row.
type cursor struct {
	segs          []pim.Segment
	seg, rep, off int
}

// norm moves a cursor that stands past a repeat or a segment to the next
// command.
func (c *cursor) norm() {
	for c.seg < len(c.segs) {
		sg := &c.segs[c.seg]
		if c.off == len(sg.Cmds) {
			c.off, c.rep = 0, c.rep+1
		}
		if c.rep < sg.Repeat && len(sg.Cmds) > 0 {
			return
		}
		c.seg, c.rep, c.off = c.seg+1, 0, 0
	}
}

func (c *cursor) done() bool { return c.seg == len(c.segs) }

// next returns the command at the cursor and steps past it.
func (c *cursor) next() *pim.Command {
	cmd := &c.segs[c.seg].Cmds[c.off]
	c.off++
	c.norm()
	return cmd
}

// tally accumulates a schedule's latency accounting while commands issue
// in program order per queue: the end of the last command to complete,
// the command counts, and the MAC-pipeline timeline's stall attribution.
// Every idle gap between consecutive MAC issues is attributed to the
// binding constraint of the waiting MAC; the lead-in before the first MAC
// to its cause (an unconstrained first MAC is still waiting on input
// transfers).
type tally struct {
	end, lastMAC  timing.Cycles
	numMAC, numIO int
	b             Breakdown
}

func (a *tally) issue(d *timing.Device, k pim.Kind, t timing.Cycles, why Reason) {
	if done := t + execLatency(d, k); done > a.end {
		a.end = done
	}
	switch {
	case k == pim.MAC:
		if a.numMAC == 0 {
			a.attribute(t, leadReason(why))
		} else {
			a.attribute(t-a.lastMAC-d.TCCDS, why)
		}
		a.numMAC++
		a.lastMAC = t
	case isIO(k):
		a.numIO++
	}
}

func (a *tally) attribute(cycles timing.Cycles, why Reason) {
	if cycles <= 0 {
		return
	}
	switch why {
	case ReasonDepWR:
		a.b.DTGBuf += cycles
	case ReasonDepRD:
		a.b.DTOutReg += cycles
	case ReasonRow:
		a.b.ActPre += cycles
	default:
		a.b.Penalty += cycles
	}
}

// advance moves the tally m periods on, one period being the change since
// prev, with every time shifted by delta per period.
func (a *tally) advance(m int, prev *tally, delta timing.Cycles) {
	mc := timing.Cycles(m)
	a.end += mc * delta
	a.lastMAC += mc * delta
	a.numMAC += m * (a.numMAC - prev.numMAC)
	a.numIO += m * (a.numIO - prev.numIO)
	a.b.ActPre += mc * (a.b.ActPre - prev.b.ActPre)
	a.b.DTGBuf += mc * (a.b.DTGBuf - prev.b.DTGBuf)
	a.b.DTOutReg += mc * (a.b.DTOutReg - prev.b.DTOutReg)
	a.b.Penalty += mc * (a.b.Penalty - prev.b.Penalty)
}

// state appends the tally's times relative to ref.
func (a *tally) state(vec []int64, ref timing.Cycles) []int64 {
	if a.numMAC == 0 {
		return append(vec, 0, int64(a.end-ref))
	}
	return append(vec, 1, int64(a.lastMAC-ref), int64(a.end-ref))
}

// finish computes Total and the breakdown: the MAC component is the
// pipeline's busy time (one tCCDS slot per MAC), everything after the
// last MAC slot is output drain time, a pure I/O program is all transfer
// time, and the refresh stretch is applied last.
func (a *tally) finish(d *timing.Device, res *Result) {
	res.NumMAC, res.NumIO = a.numMAC, a.numIO
	b := a.b
	if a.numMAC > 0 {
		b.MAC = timing.Cycles(a.numMAC) * d.TCCDS
		b.DTOutReg += a.end - (a.lastMAC + d.TCCDS)
	} else {
		b.DTGBuf = a.end
	}
	total, ref := d.StretchForRefresh(a.end)
	b.Refresh = ref
	res.Total = total
	res.Breakdown = b
}

// leadReason maps the first MAC's binding constraint to a breakdown
// category; an unconstrained first MAC is still waiting on input transfers.
func leadReason(r Reason) Reason {
	if r == ReasonNone || r == ReasonBus {
		return ReasonDepWR
	}
	return r
}

// periodSkip finds a schedule's steady state inside a repeated segment
// and jumps whole periods. At the first step a controller takes in each
// repeat of a segment repeated three or more times, it describes its
// state as a vector with every time relative to a reference time ref
// (see the package doc); when the vector equals the one taken at the
// previous repeat checked, the schedule from here is the schedule from
// there shifted by the change in ref, and every further period adds the
// same counts and breakdown. The controllers are deterministic and
// translation-invariant, so the skip is exact.
type periodSkip struct {
	seg, rep int // cursor position of the last check (seg -1: none)
	have     bool
	done     bool // this segment already skipped
	ref      timing.Cycles
	t        tally
	last     []int64
}

func (sk *periodSkip) reset() { sk.seg, sk.rep, sk.have, sk.done = -1, 0, false, false }

// due reports whether the cursor has entered a repeat not checked yet in
// a segment worth checking.
func (sk *periodSkip) due(c *cursor) bool {
	if c.done() || c.segs[c.seg].Repeat < 3 || (c.seg == sk.seg && c.rep == sk.rep) {
		return false
	}
	if c.seg != sk.seg {
		sk.seg, sk.have, sk.done = c.seg, false, false
	}
	sk.rep = c.rep
	return !sk.done
}

// skip compares vec (taken at the cursor's repeat) with the previous
// check's. On a match it moves the cursor and the tally on by the whole
// periods left in the segment and returns the time shift the controller
// must add to its own clocks; otherwise it keeps vec for the next check.
// Commands already read at the check stay inside the segment: with the
// cursor off a repeat boundary, the last repeat is left to run normally.
func (sk *periodSkip) skip(c *cursor, vec []int64, ref timing.Cycles, t *tally, rep int) (timing.Cycles, bool) {
	if sk.have && slices.Equal(vec, sk.last) {
		left := c.segs[c.seg].Repeat - c.rep
		if c.off > 0 {
			left--
		}
		dr := c.rep - rep
		if m := left / dr; m > 0 {
			delta := ref - sk.ref
			t.advance(m, &sk.t, delta)
			c.rep += m * dr
			c.norm()
			sk.done = true
			return timing.Cycles(m) * delta, true
		}
	}
	sk.last = append(sk.last[:0], vec...)
	sk.ref, sk.t, sk.have = ref, *t, true
	return 0, false
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// ---------------------------------------------------------------------------
// Static controller
// ---------------------------------------------------------------------------

// Static is the conventional in-order PIM controller: it separates every
// pair of consecutive commands by the predecessor's fixed execution time
// (pessimistically assuming a dependency), pipelining only same-kind I/O
// streams at tCCDS.
type Static struct {
	Dev timing.Device
}

// Name implements Scheduler.
func (s *Static) Name() string { return "static" }

// staticGap returns the static controller's mandatory issue gap after prev
// when cur follows it in program order.
func staticGap(d *timing.Device, prev, cur pim.Kind) timing.Cycles {
	if prev == cur && (prev == pim.WRINP || prev == pim.RDOUT) {
		return d.TCCDS // pipelined tile streaming
	}
	return execLatency(d, prev)
}

// gapReason attributes a static gap to the breakdown category of the
// command that imposed it.
func gapReason(prev pim.Kind) Reason {
	switch prev {
	case pim.WRINP:
		return ReasonDepWR
	case pim.MAC:
		return ReasonDepMAC
	case pim.RDOUT:
		return ReasonDepRD
	case pim.ACT, pim.PRE:
		return ReasonRow
	default:
		return ReasonInOrder
	}
}

// Schedule implements Scheduler. The static controller's state at a
// repeat boundary is the previous command's kind and the tally relative
// to the last issue time.
func (s *Static) Schedule(p *pim.Program) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("sched: invalid program: %w", err)
	}
	res := newResult(s.Name(), p)
	c := cursor{segs: p.Segs}
	c.norm()
	var (
		tl      tally
		sk      periodSkip
		vec     []int64
		t       timing.Cycles
		prev    pim.Kind
		started bool
	)
	sk.reset()
	for !c.done() {
		if rep := sk.rep; sk.due(&c) {
			vec = append(vec[:0], int64(prev), b2i(started))
			vec = tl.state(vec, t)
			if shift, ok := sk.skip(&c, vec, t, &tl, rep); ok {
				t += shift
				continue
			}
		}
		k := c.next().Kind
		why := ReasonNone
		if started {
			gap := staticGap(&s.Dev, prev, k)
			t += gap
			if gap > s.Dev.TCCDS {
				why = gapReason(prev)
			} else {
				why = ReasonBus
			}
		}
		tl.issue(&s.Dev, k, t, why)
		res.record(res.Scheduled, t, why)
		res.Scheduled++
		prev, started = k, true
	}
	tl.finish(&s.Dev, res)
	return res, nil
}

// ---------------------------------------------------------------------------
// Shared two-queue engine (DCS and ping-pong)
// ---------------------------------------------------------------------------

// dep is a dependency edge: the command may not issue before the
// dependee's issue time plus off — its completion (execution latency,
// plus tOBufCommit for an RD-OUT after a MAC) or, for an is-MAC chain,
// one tCCDS issue slot.
type dep struct {
	id  int32  // dependee command handle
	why Reason // attribution if this edge is binding
	off int32
}

// edges is a dependency table in compressed sparse row form, filled in
// stream order by a dependency pass: the edges of handle h are
// list[off[h]:off[h+1]].
type edges struct {
	off  []int
	list []dep
}

// add appends an edge on handle id, when there is one (id >= 0), to the
// command being recorded.
func (e *edges) add(id int, off timing.Cycles, why Reason) {
	if id >= 0 {
		e.list = append(e.list, dep{id: int32(id), why: why, off: int32(off)})
	}
}

// depPass records one command's dependency edges, in stream order, into
// e. tbl is the pass's D-table: the handle of the last command in each
// tracked role (-1 none), one flat slice so the period check reads it
// whole.
type depPass func(tbl []int, c *pim.Command, h int, e *edges)

// engineScratch is the two-queue engine's working memory, indexed by
// handle: commands get dense handles in stream order as the engine reads
// them, so a skipped period takes none. It is taken from enginePool per
// scheduling and returned afterwards, so concurrent schedulings never
// share it and a warm one does not grow it.
type engineScratch struct {
	kind    []pim.Kind
	issue   []timing.Cycles // issue cycle, unissued while not issued yet
	deps    edges
	ioQ, cQ []int // handles per queue, in stream order
	tbl     []int
	vec     []int64
	sk      periodSkip
}

var enginePool = sync.Pool{New: func() any { return new(engineScratch) }}

// isIO reports whether a command issues on the I/O transfer queue.
func isIO(k pim.Kind) bool { return k == pim.WRINP || k == pim.RDOUT }

// engine is one run of the dual-queue out-of-order engine.
type engine struct {
	*engineScratch
	d               *timing.Device
	c               cursor
	pass            depPass
	ioFree, macFree timing.Cycles
	ioHead, cHead   int // next unissued index into ioQ / cQ
	maxOff          [pim.NumKinds]timing.Cycles
	tl              tally
}

// read takes the next command off the cursor, gives it a handle and
// records its edges.
func (e *engine) read() {
	c := e.c.next()
	h := len(e.kind)
	e.kind = append(e.kind, c.Kind)
	e.issue = append(e.issue, unissued)
	e.pass(e.tbl, c, h, &e.deps)
	e.deps.off = append(e.deps.off, len(e.deps.list))
	if isIO(c.Kind) {
		e.ioQ = append(e.ioQ, h)
	} else {
		e.cQ = append(e.cQ, h)
	}
}

// earliest is the issue cycle of handle h on a queue free at resFree and
// its binding constraint; inf while a dependee has not issued.
func (e *engine) earliest(h int, resFree timing.Cycles) (timing.Cycles, Reason) {
	t := resFree
	why := ReasonNone
	if resFree > 0 {
		why = ReasonBus
	}
	for _, dp := range e.deps.list[e.deps.off[h]:e.deps.off[h+1]] {
		it := e.issue[dp.id]
		if it == unissued {
			return inf, ReasonInOrder
		}
		if b := it + timing.Cycles(dp.off); b > t {
			t, why = b, dp.why
		}
	}
	return t, why
}

// Reference tags in the state vector.
const (
	tagNone     = iota // no command
	tagPast            // issued, and its bound can never bind again
	tagIssued          // issued: relative handle, kind, relative issue time
	tagUnissued        // read but not issued: relative handle, kind
)

// reference appends the description of a reference to handle h whose bound is
// at most its issue time plus off. A bound at or below ref can never bind
// again: both free times only grow past ref, and a command never issues
// before its queue is free. Such references collapse to one tag, which is
// what lets the state of a long run repeat at all. lo tracks the lowest
// handle the vector describes by time.
func (e *engine) reference(vec []int64, h, base int, off, ref timing.Cycles, lo *int) []int64 {
	switch {
	case h < 0:
		return append(vec, tagNone)
	case e.issue[h] != unissued && e.issue[h]+off <= ref:
		return append(vec, tagPast)
	}
	*lo = min(*lo, h)
	if e.issue[h] != unissued {
		return append(vec, tagIssued, int64(h-base), int64(e.kind[h]), int64(e.issue[h]-ref))
	}
	return append(vec, tagUnissued, int64(h-base), int64(e.kind[h]))
}

// state appends the engine's relative state at a repeat boundary: the
// cursor's offset in the repeat, both queue heads and free times, the
// tally, every D-table reference and every read-but-unissued command's
// edges, handles relative to the repeat's first command and times to
// ref = min(ioFree, macFree). It returns the lowest handle whose time the
// vector depends on.
func (e *engine) state(vec []int64, ioOK, cOK bool) ([]int64, int) {
	base := len(e.kind) - e.c.off
	ref := min(e.ioFree, e.macFree)
	win := len(e.kind) // the first unissued command
	vec = append(vec, int64(e.c.off), int64(e.ioFree-ref), int64(e.macFree-ref), b2i(e.ioFree > 0), b2i(e.macFree > 0))
	if ioOK {
		win = min(win, e.ioQ[e.ioHead])
		vec = append(vec, int64(e.ioQ[e.ioHead]-base))
	} else {
		vec = append(vec, math.MinInt64)
	}
	if cOK {
		win = min(win, e.cQ[e.cHead])
		vec = append(vec, int64(e.cQ[e.cHead]-base))
	} else {
		vec = append(vec, math.MinInt64)
	}
	lo := win
	vec = e.tl.state(vec, ref)
	for _, h := range e.tbl {
		off := timing.Cycles(0)
		if h >= 0 {
			off = e.maxOff[e.kind[h]]
		}
		vec = e.reference(vec, h, base, off, ref, &lo)
	}
	for h := win; h < len(e.kind); h++ {
		if e.issue[h] != unissued {
			vec = append(vec, tagIssued)
			continue
		}
		ds := e.deps.list[e.deps.off[h]:e.deps.off[h+1]]
		vec = append(vec, tagUnissued, int64(e.kind[h]), int64(len(ds)))
		for _, dp := range ds {
			vec = append(vec, int64(dp.off), int64(dp.why))
			vec = e.reference(vec, int(dp.id), base, timing.Cycles(dp.off), ref, &lo)
		}
	}
	return vec, lo
}

// runQueues executes the dual-queue out-of-order engine: in-order within the
// I/O and compute queues, out-of-order across them, waiting only on the
// dependency edges pass records (tblSize D-table slots). Ties are broken
// in favour of the I/O queue so input prefetches are not starved by long
// MAC chains. Commands are read from the program as the queue heads need
// them, so the engine holds only the commands it issues one by one.
func runQueues(d *timing.Device, p *pim.Program, name string, tblSize int, pass depPass) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("sched: invalid program: %w", err)
	}
	sc := enginePool.Get().(*engineScratch)
	defer enginePool.Put(sc)
	// The engine reads the commands it holds plus a few periods: size the
	// per-command slices for that once rather than grow them by doubling.
	held := 0
	for _, sg := range p.Segs {
		held += len(sg.Cmds)
	}
	n := min(p.Len(), 4*held)
	sc.kind, sc.issue = slices.Grow(sc.kind[:0], n), slices.Grow(sc.issue[:0], n)
	sc.deps.off, sc.deps.list = append(slices.Grow(sc.deps.off[:0], n+1), 0), slices.Grow(sc.deps.list[:0], 3*n)
	sc.ioQ, sc.cQ = slices.Grow(sc.ioQ[:0], n), slices.Grow(sc.cQ[:0], n)
	sc.tbl = slices.Grow(sc.tbl[:0], tblSize)[:tblSize]
	for i := range sc.tbl {
		sc.tbl[i] = -1
	}
	sc.sk.reset()
	e := engine{engineScratch: sc, d: d, c: cursor{segs: p.Segs}, pass: pass}
	e.c.norm()
	for k := range e.maxOff {
		e.maxOff[k] = max(d.TCCDS, execLatency(d, pim.Kind(k))+d.TOBufCommit)
	}
	res := newResult(name, p)
	for {
		for e.ioHead == len(e.ioQ) && !e.c.done() {
			e.read()
		}
		for e.cHead == len(e.cQ) && !e.c.done() {
			e.read()
		}
		ioOK, cOK := e.ioHead < len(e.ioQ), e.cHead < len(e.cQ)
		if !ioOK && !cOK {
			break
		}
		if rep := e.sk.rep; e.sk.due(&e.c) {
			var lo int
			e.vec, lo = e.state(e.vec[:0], ioOK, cOK)
			if shift, ok := e.sk.skip(&e.c, e.vec, min(e.ioFree, e.macFree), &e.tl, rep); ok {
				e.ioFree += shift
				e.macFree += shift
				for h := lo; h < len(e.issue); h++ {
					if e.issue[h] != unissued {
						e.issue[h] += shift
					}
				}
			}
		}
		tIO, whyIO := inf, ReasonNone
		if ioOK {
			tIO, whyIO = e.earliest(e.ioQ[e.ioHead], e.ioFree)
		}
		tC, whyC := inf, ReasonNone
		if cOK {
			tC, whyC = e.earliest(e.cQ[e.cHead], e.macFree)
		}
		if tIO == inf && tC == inf {
			return nil, fmt.Errorf("sched: %s deadlocked with io head %d / compute head %d", name, e.ioHead, e.cHead)
		}
		var h int
		var t timing.Cycles
		var why Reason
		if tIO <= tC {
			h, t, why = e.ioQ[e.ioHead], tIO, whyIO
			e.ioFree = t + d.TCCDS
			e.ioHead++
		} else {
			h, t, why = e.cQ[e.cHead], tC, whyC
			e.macFree = t + d.TCCDS
			e.cHead++
		}
		e.issue[h] = t
		e.tl.issue(d, e.kind[h], t, why)
		res.record(h, t, why)
	}
	res.Scheduled = len(e.kind)
	e.tl.finish(d, res)
	return res, nil
}

// ---------------------------------------------------------------------------
// DCS controller
// ---------------------------------------------------------------------------

// DCS is PIMphony's dynamic command scheduler: D-Table per-entry dependency
// assignment, S-Table readiness checks, dual queues and the is-MAC
// accumulate bypass. IsMACBypass can be disabled for ablation.
type DCS struct {
	Dev timing.Device
	// DisableIsMAC turns off the is-MAC flag: consecutive MACs to the same
	// output entry then wait for full tMAC completion (ablation knob).
	DisableIsMAC bool
}

// Name implements Scheduler.
func (s *DCS) Name() string {
	if s.DisableIsMAC {
		return "dcs-no-ismac"
	}
	return "dcs"
}

// Schedule implements Scheduler.
func (s *DCS) Schedule(p *pim.Program) (*Result, error) {
	// D-Table: last writer / reader per GBuf entry, last MAC / drain per
	// output entry, plus row-state tracking.
	g, o := p.GBufEntries, p.OutEntries
	gw, gr, ow, or := 0, g, 2*g, 2*g+o // per-entry slot arrays
	act, pre, rowMAC := 2*g+2*o, 2*g+2*o+1, 2*g+2*o+2
	d := &s.Dev
	chain := d.TCCDS // is-MAC: the next accumulate pipelines behind this one
	if s.DisableIsMAC {
		chain = d.TMAC
	}
	return runQueues(d, p, s.Name(), 2*g+2*o+3, func(tbl []int, c *pim.Command, i int, deps *edges) {
		switch c.Kind {
		case pim.WRINP:
			deps.add(tbl[gw+c.GBuf], d.TWRINP, ReasonDepWR) // WAW
			deps.add(tbl[gr+c.GBuf], d.TMAC, ReasonDepMAC)  // WAR: reader must finish
			tbl[gw+c.GBuf] = i
		case pim.MAC:
			deps.add(tbl[gw+c.GBuf], d.TWRINP, ReasonDepWR) // RAW on input tile
			deps.add(tbl[or+c.Out], d.TRDOUT, ReasonDepRD)  // WAR: drain before reuse
			deps.add(tbl[ow+c.Out], chain, ReasonDepMAC)
			deps.add(tbl[act], d.TRCD, ReasonRow)
			tbl[gr+c.GBuf] = i
			tbl[ow+c.Out] = i
			tbl[rowMAC] = i
		case pim.RDOUT:
			deps.add(tbl[ow+c.Out], d.TMAC+d.TOBufCommit, ReasonDepMAC)
			tbl[or+c.Out] = i
		case pim.ACT:
			deps.add(tbl[pre], d.TRP, ReasonRow)
			tbl[act] = i
		case pim.PRE:
			deps.add(tbl[rowMAC], d.TMAC, ReasonDepMAC)
			tbl[pre] = i
		}
	})
}

// ---------------------------------------------------------------------------
// Ping-pong controller
// ---------------------------------------------------------------------------

// PingPong models dual-buffering schemes (PipePIM-style): GBuf and the
// output registers are split into two regions; I/O to one region may overlap
// compute on the other, but dependencies are tracked only at region
// granularity, so region hand-offs stall until the whole region is idle.
type PingPong struct {
	Dev timing.Device
}

// Name implements Scheduler.
func (s *PingPong) Name() string { return "pingpong" }

// Schedule implements Scheduler.
func (s *PingPong) Schedule(p *pim.Program) (*Result, error) {
	gHalf := max(p.GBufEntries/2, 1)
	oHalf := max(p.OutEntries/2, 1)
	gRegions := p.GBufEntries/gHalf + 1
	oRegions := p.OutEntries/oHalf + 1
	// Region D-Table: last WR-INP / MAC reader per GBuf region, last MAC /
	// RD-OUT per output region, plus row-state tracking.
	gw, gr, ow, or := 0, gRegions, 2*gRegions, 2*gRegions+oRegions
	act, pre, rowMAC := 2*gRegions+2*oRegions, 2*gRegions+2*oRegions+1, 2*gRegions+2*oRegions+2
	d := &s.Dev
	return runQueues(d, p, s.Name(), 2*gRegions+2*oRegions+3, func(tbl []int, c *pim.Command, i int, deps *edges) {
		switch c.Kind {
		case pim.WRINP:
			r := c.GBuf / gHalf
			deps.add(tbl[gr+r], d.TMAC, ReasonDepMAC) // region hand-off
			tbl[gw+r] = i
		case pim.MAC:
			r := c.GBuf / gHalf
			deps.add(tbl[gw+r], d.TWRINP, ReasonDepWR) // whole region filled
			deps.add(tbl[or+c.Out/oHalf], d.TRDOUT, ReasonDepRD)
			deps.add(tbl[act], d.TRCD, ReasonRow)
			tbl[gr+r] = i
			tbl[ow+c.Out/oHalf] = i
			tbl[rowMAC] = i
		case pim.RDOUT:
			r := c.Out / oHalf
			deps.add(tbl[ow+r], d.TMAC+d.TOBufCommit, ReasonDepMAC)
			tbl[or+r] = i
		case pim.ACT:
			deps.add(tbl[pre], d.TRP, ReasonRow)
			tbl[act] = i
		case pim.PRE:
			deps.add(tbl[rowMAC], d.TMAC, ReasonDepMAC)
			tbl[pre] = i
		}
	})
}
