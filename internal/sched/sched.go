// Package sched implements the three PIM command controllers compared in the
// paper: the conventional static in-order controller, a ping-pong
// (dual-region) buffering controller, and PIMphony's Dynamic PIM Command
// Scheduling (DCS) controller with per-buffer-entry dependency tracking.
//
// All controllers consume a pim.Stack (a linear command stream for one
// channel) and produce a Result with per-command issue times, the total
// latency, a latency breakdown in the categories of the paper's Fig. 8/9
// (MAC, ACT/PRE, REF, DT-GBuf, DT-OutReg, pipeline penalty) and the MAC-unit
// utilization.
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

// Result is the outcome of scheduling one command stack.
type Result struct {
	Scheduler string
	Total     timing.Cycles   // end-to-end latency including refresh stretch
	Issue     []timing.Cycles // per-command issue cycle (indexed by cmd ID)
	Reasons   []Reason        // binding constraint per command
	Breakdown Breakdown
	NumMAC    int
	NumIO     int
}

// MACUtilization is the fraction of the total latency during which the MAC
// pipeline was busy.
func (r *Result) MACUtilization() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Breakdown.MAC) / float64(r.Total)
}

// newResult allocates the Result of scheduling an n-command stack. It is
// a scheduling's only allocation that grows with the stack: the two-queue
// engine's working memory is pooled.
func newResult(name string, n int) *Result {
	return &Result{Scheduler: name, Issue: make([]timing.Cycles, n), Reasons: make([]Reason, n)}
}

// Scheduler schedules a command stack onto one PIM channel.
type Scheduler interface {
	Name() string
	Schedule(s *pim.Stack) (*Result, error)
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

const inf = timing.Cycles(math.MaxInt64 / 4)

// negOnes returns an int slice of length n filled with -1 ("no command").
func negOnes(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = -1
	}
	return s
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

// Schedule implements Scheduler.
func (s *Static) Schedule(st *pim.Stack) (*Result, error) {
	if err := st.Validate(); err != nil {
		return nil, fmt.Errorf("sched: invalid stack: %w", err)
	}
	cmds := st.Cmds
	res := newResult(s.Name(), len(cmds))
	var t timing.Cycles
	for i := range cmds {
		if i > 0 {
			prev := cmds[i-1].Kind
			gap := staticGap(&s.Dev, prev, cmds[i].Kind)
			t += gap
			if gap > s.Dev.TCCDS {
				res.Reasons[i] = gapReason(prev)
			} else {
				res.Reasons[i] = ReasonBus
			}
		}
		res.Issue[i] = t
	}
	finalize(&s.Dev, st, res)
	return res, nil
}

// ---------------------------------------------------------------------------
// Shared two-queue engine (DCS and ping-pong)
// ---------------------------------------------------------------------------

// dep is a dependency edge: the command may not issue before the wait bound
// derived from the dependee's issue time.
type dep struct {
	id     int    // dependee command ID
	pipe   bool   // true: wait issue+tCCDS (is-MAC chain); false: wait completion
	commit bool   // true: add tOBufCommit after completion (RD-OUT after MAC)
	why    Reason // attribution if this edge is binding
}

// edges is a dependency table in compressed sparse row form, filled in
// program order by a dependency pass: open starts the next command's
// list, add appends to it, and the edges of command i are
// list[off[i]:off[i+1]].
type edges struct {
	off  []int
	list []dep
}

// open starts the edge list of the next command in program order.
func (e *edges) open() { e.off = append(e.off, len(e.list)) }

// add appends an edge to the command opened last.
func (e *edges) add(dp dep) { e.list = append(e.list, dp) }

// engineScratch is the two-queue engine's working memory. It is taken
// from enginePool per scheduling and returned afterwards, so concurrent
// schedulings never share it and a warm one does not grow it.
type engineScratch struct {
	deps    edges
	ioQ, cQ []int // command IDs per queue, in program order
	issued  []bool
}

var enginePool = sync.Pool{New: func() any { return new(engineScratch) }}

// isIO reports whether a command issues on the I/O transfer queue.
func isIO(k pim.Kind) bool { return k == pim.WRINP || k == pim.RDOUT }

// runQueues executes the dual-queue out-of-order engine: in-order within the
// I/O and compute queues, out-of-order across them, waiting only on the
// dependency edges depsOf records (one open per command, in program
// order). Ties are broken in favour of the I/O queue so input prefetches
// are not starved by long MAC chains.
func runQueues(d *timing.Device, st *pim.Stack, name string, depsOf func(e *edges)) (*Result, error) {
	if err := st.Validate(); err != nil {
		return nil, fmt.Errorf("sched: invalid stack: %w", err)
	}
	sc := enginePool.Get().(*engineScratch)
	defer enginePool.Put(sc)
	cmds := st.Cmds
	n := len(cmds)
	// Per-command slices are sized up front, so even a cold scratch
	// allocates each of them once rather than once per doubling.
	sc.deps.off, sc.deps.list = slices.Grow(sc.deps.off[:0], n+1), sc.deps.list[:0]
	depsOf(&sc.deps)
	if len(sc.deps.off) != n {
		return nil, fmt.Errorf("sched: dependency pass returned %d entries for %d commands", len(sc.deps.off), n)
	}
	sc.deps.open() // off[n] closes the last command's list
	off, list := sc.deps.off, sc.deps.list

	ioQ, cQ := slices.Grow(sc.ioQ[:0], n), slices.Grow(sc.cQ[:0], n)
	for i := range cmds {
		if isIO(cmds[i].Kind) {
			ioQ = append(ioQ, i)
		} else {
			cQ = append(cQ, i)
		}
	}
	sc.ioQ, sc.cQ = ioQ, cQ
	issued := slices.Grow(sc.issued[:0], n)[:n]
	clear(issued)
	sc.issued = issued

	res := newResult(name, n)
	var ioFree, macFree timing.Cycles
	ioHead, cHead := 0, 0

	earliest := func(id int, resFree timing.Cycles) (timing.Cycles, Reason) {
		t := resFree
		why := ReasonNone
		if resFree > 0 {
			why = ReasonBus
		}
		for _, dp := range list[off[id]:off[id+1]] {
			if !issued[dp.id] {
				return inf, ReasonInOrder
			}
			bound := res.Issue[dp.id]
			if dp.pipe {
				bound += d.TCCDS
			} else {
				bound += execLatency(d, cmds[dp.id].Kind)
				if dp.commit {
					bound += d.TOBufCommit
				}
			}
			if bound > t {
				t, why = bound, dp.why
			}
		}
		return t, why
	}

	for ioHead < len(ioQ) || cHead < len(cQ) {
		tIO, whyIO := inf, ReasonNone
		if ioHead < len(ioQ) {
			tIO, whyIO = earliest(ioQ[ioHead], ioFree)
		}
		tC, whyC := inf, ReasonNone
		if cHead < len(cQ) {
			tC, whyC = earliest(cQ[cHead], macFree)
		}
		if tIO == inf && tC == inf {
			return nil, fmt.Errorf("sched: %s deadlocked with io head %d / compute head %d", name, ioHead, cHead)
		}
		if tIO <= tC {
			id := ioQ[ioHead]
			res.Issue[id] = tIO
			res.Reasons[id] = whyIO
			issued[id] = true
			ioFree = tIO + d.TCCDS
			ioHead++
		} else {
			id := cQ[cHead]
			res.Issue[id] = tC
			res.Reasons[id] = whyC
			issued[id] = true
			macFree = tC + d.TCCDS
			cHead++
		}
	}
	finalize(d, st, res)
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
func (s *DCS) Schedule(st *pim.Stack) (*Result, error) {
	return runQueues(&s.Dev, st, s.Name(), func(deps *edges) {
		// D-Table: last writer / reader per GBuf entry, last MAC / drain per
		// output entry, plus row-state tracking.
		lastGW := negOnes(st.GBufEntries) // GBuf entry -> last WR-INP
		lastGR := negOnes(st.GBufEntries) // GBuf entry -> last MAC reader
		lastOW := negOnes(st.OutEntries)  // out entry -> last MAC accumulate
		lastOR := negOnes(st.OutEntries)  // out entry -> last RD-OUT
		lastAct, lastPre, lastRowMAC := -1, -1, -1
		for i := range st.Cmds {
			c := &st.Cmds[i]
			deps.open()
			switch c.Kind {
			case pim.WRINP:
				if id := lastGW[c.GBuf]; id >= 0 {
					deps.add(dep{id: id, why: ReasonDepWR}) // WAW
				}
				if id := lastGR[c.GBuf]; id >= 0 {
					deps.add(dep{id: id, why: ReasonDepMAC}) // WAR: reader must finish
				}
				lastGW[c.GBuf] = i
			case pim.MAC:
				if id := lastGW[c.GBuf]; id >= 0 {
					deps.add(dep{id: id, why: ReasonDepWR}) // RAW on input tile
				}
				if id := lastOR[c.Out]; id >= 0 {
					deps.add(dep{id: id, why: ReasonDepRD}) // WAR: drain before reuse
				}
				if id := lastOW[c.Out]; id >= 0 {
					if s.DisableIsMAC {
						deps.add(dep{id: id, why: ReasonDepMAC})
					} else {
						deps.add(dep{id: id, pipe: true, why: ReasonDepMAC}) // is-MAC chain
					}
				}
				if lastAct >= 0 {
					deps.add(dep{id: lastAct, why: ReasonRow})
				}
				lastGR[c.GBuf] = i
				lastOW[c.Out] = i
				lastRowMAC = i
			case pim.RDOUT:
				if id := lastOW[c.Out]; id >= 0 {
					deps.add(dep{id: id, commit: true, why: ReasonDepMAC})
				}
				lastOR[c.Out] = i
			case pim.ACT:
				if lastPre >= 0 {
					deps.add(dep{id: lastPre, why: ReasonRow})
				}
				lastAct = i
			case pim.PRE:
				if lastRowMAC >= 0 {
					deps.add(dep{id: lastRowMAC, why: ReasonDepMAC})
				}
				lastPre = i
			}
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
func (s *PingPong) Schedule(st *pim.Stack) (*Result, error) {
	gHalf := st.GBufEntries / 2
	if gHalf == 0 {
		gHalf = 1
	}
	oHalf := st.OutEntries / 2
	if oHalf == 0 {
		oHalf = 1
	}
	gRegion := func(e int) int { return e / gHalf }
	oRegion := func(e int) int { return e / oHalf }
	return runQueues(&s.Dev, st, s.Name(), func(deps *edges) {
		gRegions := st.GBufEntries/gHalf + 1
		oRegions := st.OutEntries/oHalf + 1
		lastGW := negOnes(gRegions) // gbuf region -> last WR-INP
		lastGR := negOnes(gRegions) // gbuf region -> last MAC reader
		lastOW := negOnes(oRegions) // out region -> last MAC
		lastOR := negOnes(oRegions) // out region -> last RD-OUT
		lastAct, lastPre, lastRowMAC := -1, -1, -1
		for i := range st.Cmds {
			c := &st.Cmds[i]
			deps.open()
			switch c.Kind {
			case pim.WRINP:
				r := gRegion(c.GBuf)
				if id := lastGR[r]; id >= 0 {
					deps.add(dep{id: id, why: ReasonDepMAC}) // region hand-off
				}
				lastGW[r] = i
			case pim.MAC:
				r := gRegion(c.GBuf)
				if id := lastGW[r]; id >= 0 {
					deps.add(dep{id: id, why: ReasonDepWR}) // whole region filled
				}
				or := oRegion(c.Out)
				if id := lastOR[or]; id >= 0 {
					deps.add(dep{id: id, why: ReasonDepRD})
				}
				if lastAct >= 0 {
					deps.add(dep{id: lastAct, why: ReasonRow})
				}
				lastGR[r] = i
				lastOW[or] = i
				lastRowMAC = i
			case pim.RDOUT:
				or := oRegion(c.Out)
				if id := lastOW[or]; id >= 0 {
					deps.add(dep{id: id, commit: true, why: ReasonDepMAC})
				}
				lastOR[or] = i
			case pim.ACT:
				if lastPre >= 0 {
					deps.add(dep{id: lastPre, why: ReasonRow})
				}
				lastAct = i
			case pim.PRE:
				if lastRowMAC >= 0 {
					deps.add(dep{id: lastRowMAC, why: ReasonDepMAC})
				}
				lastPre = i
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Breakdown finalization
// ---------------------------------------------------------------------------

// finalize computes Total and the latency breakdown from issue times. The
// breakdown is built over the MAC-pipeline timeline: the MAC component is
// the pipeline's busy time (one tCCDS slot per MAC); all idle gaps between
// MAC issues are attributed to the binding constraint of the waiting MAC;
// the lead-in before the first MAC and the drain after the last are
// attributed to their binding causes. A refresh stretch is applied last.
func finalize(d *timing.Device, st *pim.Stack, res *Result) {
	cmds := st.Cmds
	var end timing.Cycles
	for i := range cmds {
		k := cmds[i].Kind
		done := res.Issue[i] + execLatency(d, k)
		if done > end {
			end = done
		}
		if k == pim.MAC {
			res.NumMAC++
		} else if isIO(k) {
			res.NumIO++
		}
	}
	b := &res.Breakdown
	attribute := func(cycles timing.Cycles, why Reason) {
		if cycles <= 0 {
			return
		}
		switch why {
		case ReasonDepWR:
			b.DTGBuf += cycles
		case ReasonDepRD:
			b.DTOutReg += cycles
		case ReasonRow:
			b.ActPre += cycles
		default:
			b.Penalty += cycles
		}
	}
	if res.NumMAC > 0 {
		b.MAC = timing.Cycles(res.NumMAC) * d.TCCDS
		prev := timing.Cycles(-1)
		var lastMAC timing.Cycles
		first := true
		for i := range cmds {
			if cmds[i].Kind != pim.MAC {
				continue
			}
			t := res.Issue[i]
			if first {
				attribute(t, leadReason(res.Reasons[i]))
				first = false
			} else {
				attribute(t-prev-d.TCCDS, res.Reasons[i])
			}
			prev = t
			if t > lastMAC {
				lastMAC = t
			}
		}
		// Drain: everything after the last MAC slot is output drain time.
		b.DTOutReg += end - (lastMAC + d.TCCDS)
	} else {
		// Pure I/O stack: attribute everything to transfer time.
		b.DTGBuf = end
	}
	total, ref := d.StretchForRefresh(end)
	b.Refresh = ref
	res.Total = total
}

// leadReason maps the first MAC's binding constraint to a breakdown
// category; an unconstrained first MAC is still waiting on input transfers.
func leadReason(r Reason) Reason {
	if r == ReasonNone || r == ReasonBus {
		return ReasonDepWR
	}
	return r
}
