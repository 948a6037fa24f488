// Package kernels builds per-channel PIM command programs for the
// operations the paper offloads to PIM: fully-connected GEMV, attention
// score computation (QK^T) and attention value aggregation (SV), including
// the GQA variants and the row-reuse mapping of Sec. V-C.
//
// The builders are shape-faithful: the program they emit expands to the
// exact WR-INP / MAC / RD-OUT / ACT / PRE command sequence a compiler
// would emit for the given buffer geometry, including input re-streaming
// when the Global Buffer cannot hold the operand and partial output
// drains when the accumulator file (baseline OutReg vs PIMphony OBuf) is
// too small to keep all live partial sums resident.
//
// The attention loops are periodic: unit u+1 of a streaming loop (a score
// group, a score chunk, a DRAM row visit) is unit u with its keys and DRAM
// addresses advanced by a fixed stride. A builder emits units one by one
// while recording the state of its GBuf, accumulator and row trackers at
// each unit, keys taken relative to the unit. When that state recurs the
// units since its first occurrence form the loop's period: they are
// folded into one repeated segment, the trackers are advanced past the
// remaining whole periods, and the tail is emitted normally. The period
// is the least common multiple of the DRAM-row stride and the GBuf and
// accumulator ring strides, found rather than computed, so a loop whose
// state never recurs simply stays flat. GEMV stays a flat program.
//
// A builder resets the caller's program and fills it, so a caller
// building many kernels reuses one program's capacity.
package kernels

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"pimphony/internal/pim"
	"pimphony/internal/timing"
)

// Buffers selects the channel buffer geometry a program is built for.
type Buffers struct {
	GBufEntries int // input tiles resident in the Global Buffer
	OutEntries  int // per-bank accumulators (2 = baseline OutReg, 32 = OBuf)
}

// BaselineBuffers returns the conventional PIM buffer geometry: full GBuf
// but only the 4-byte per-bank output register file.
func BaselineBuffers(d timing.Device) Buffers {
	return Buffers{GBufEntries: d.GBufEntries(), OutEntries: d.OutRegEntries()}
}

// OBufBuffers returns PIMphony's I/O-aware buffer geometry with the
// expanded output buffer.
func OBufBuffers(d timing.Device) Buffers {
	return Buffers{GBufEntries: d.GBufEntries(), OutEntries: d.OBufEntries()}
}

// Config carries everything the builders need.
type Config struct {
	Dev timing.Device
	Buf Buffers
}

// NewConfig pairs a device with a buffer geometry.
func NewConfig(d timing.Device, b Buffers) Config { return Config{Dev: d, Buf: b} }

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// ---------------------------------------------------------------------------
// Allocator helpers
// ---------------------------------------------------------------------------

// noKey marks a free entry or a closed row in a state signature.
const noKey = math.MinInt

// fillNegOnes resizes s to n entries, all -1 ("none").
func fillNegOnes(s []int, n int) []int {
	s = slices.Grow(s[:0], n)[:n]
	for i := range s {
		s[i] = -1
	}
	return s
}

// relKey is key k relative to a unit's key base, or noKey for none and
// for a dead key: one below dead (relative), the lowest key any later
// unit acquires. A dead entry is as good as free: acquiring it never
// looks its key up, and evicting it emits only what its dirty flag says.
func relKey(k, base, dead int) int {
	if k < 0 || k-base < dead {
		return noKey
	}
	return k - base
}

// gbufAlloc manages Global Buffer residency for input tiles. Acquiring a
// non-resident tile emits a WR-INP into a round-robin entry; acquiring a
// resident tile is free (data reuse). Tile keys are dense in [0, keys).
type gbufAlloc struct {
	p     *pim.Program
	owner []int // entry -> tile key (-1 free)
	slot  []int // tile key -> entry (-1 not resident)
	next  int
	low   int // lowest key acquired since the loop began
}

func (a *gbufAlloc) reset(p *pim.Program, entries, keys int) {
	a.p, a.owner, a.slot, a.next = p, fillNegOnes(a.owner, entries), fillNegOnes(a.slot, keys), 0
}

// acquire returns the GBuf entry holding the tile, streaming it in first if
// needed.
func (a *gbufAlloc) acquire(key int) int {
	a.low = min(a.low, key)
	if e := a.slot[key]; e >= 0 {
		return e
	}
	e := a.next
	a.next = (a.next + 1) % len(a.owner)
	if old := a.owner[e]; old >= 0 {
		a.slot[old] = -1
	}
	a.owner[e] = key
	a.slot[key] = e
	a.p.WrInp(e)
	return e
}

// invalidateAll drops residency info (e.g. when a kernel phase reuses keys).
// It visits only the entries, never the key space.
func (a *gbufAlloc) invalidateAll() {
	for e, key := range a.owner {
		if key >= 0 {
			a.slot[key] = -1
			a.owner[e] = -1
		}
	}
}

// sig appends the allocator state, keys relative to base (dead as in
// relKey).
func (a *gbufAlloc) sig(dst []int, base, dead int) []int {
	dst = append(dst, a.next)
	for _, k := range a.owner {
		dst = append(dst, relKey(k, base, dead))
	}
	return dst
}

// shift advances every resident key by d.
func (a *gbufAlloc) shift(d int) { shiftKeys(a.owner, a.slot, d) }

// shiftKeys advances every owned key by d, keeping slot its inverse.
func shiftKeys(owner, slot []int, d int) {
	if d == 0 {
		return
	}
	for _, k := range owner {
		if k >= 0 {
			slot[k] = -1
		}
	}
	for e, k := range owner {
		if k >= 0 {
			owner[e] = k + d
			slot[k+d] = e
		}
	}
}

// outAlloc manages per-bank accumulator entries. Acquiring an accumulator
// for a new logical output while all entries are live evicts the
// round-robin victim with a partial RD-OUT drain (the EPU merges partial
// sums in the GPR). Output keys are dense in [0, keys).
type outAlloc struct {
	p     *pim.Program
	owner []int // entry -> logical output key (-1 free)
	dirty []bool
	slot  []int // output key -> entry (-1 not live)
	next  int
	low   int // lowest key acquired since the loop began
}

func (a *outAlloc) reset(p *pim.Program, entries, keys int) {
	a.p, a.owner, a.slot, a.next = p, fillNegOnes(a.owner, entries), fillNegOnes(a.slot, keys), 0
	a.dirty = slices.Grow(a.dirty[:0], entries)[:entries]
	clear(a.dirty)
}

// acquire returns the accumulator entry for the logical output key,
// draining a victim if necessary.
func (a *outAlloc) acquire(key int) int {
	a.low = min(a.low, key)
	if e := a.slot[key]; e >= 0 {
		return e
	}
	e := a.next
	a.next = (a.next + 1) % len(a.owner)
	if old := a.owner[e]; old >= 0 {
		if a.dirty[e] {
			a.p.RdOut(e)
			a.dirty[e] = false
		}
		a.slot[old] = -1
	}
	a.owner[e] = key
	a.slot[key] = e
	return e
}

// mac records an accumulation into the entry.
func (a *outAlloc) mac(e int) { a.dirty[e] = true }

// release drains the accumulator of key if live and dirty (a completed
// logical output).
func (a *outAlloc) release(key int) {
	e := a.slot[key]
	if e < 0 {
		return
	}
	if a.dirty[e] {
		a.p.RdOut(e)
		a.dirty[e] = false
	}
	a.slot[key] = -1
	a.owner[e] = -1
}

// flush drains every dirty accumulator (end of kernel).
func (a *outAlloc) flush() {
	for e := range a.owner {
		if a.owner[e] >= 0 && a.dirty[e] {
			a.p.RdOut(e)
			a.dirty[e] = false
		}
	}
}

// sig appends the allocator state, keys relative to base (dead as in
// relKey).
func (a *outAlloc) sig(dst []int, base, dead int) []int {
	dst = append(dst, a.next)
	for e, k := range a.owner {
		d := 0
		if a.dirty[e] {
			d = 1
		}
		dst = append(dst, relKey(k, base, dead), d)
	}
	return dst
}

// shift advances every live key by d.
func (a *outAlloc) shift(d int) { shiftKeys(a.owner, a.slot, d) }

// rowTracker emits PRE/ACT pairs when the DRAM row of a MAC changes.
type rowTracker struct {
	p           *pim.Program
	tilesPerRow int
	open        int // -1 = closed
}

// mac emits the row commands needed for tile address addr and then the MAC.
func (r *rowTracker) mac(gbuf, out, addr int) {
	row, col := addr/r.tilesPerRow, addr%r.tilesPerRow
	if r.open != row {
		if r.open >= 0 {
			r.p.Pre(r.open)
		}
		r.p.Act(row)
		r.open = row
	}
	r.p.Mac(gbuf, out, row, col)
}

// close precharges the open row, if any.
func (r *rowTracker) close() {
	if r.open >= 0 {
		r.p.Pre(r.open)
		r.open = -1
	}
}

// state is the row state relative to tile address base: the base's
// offset within its row and the open row relative to the base's row.
func (r *rowTracker) state(base int) (phase, open int) {
	open = noKey
	if r.open >= 0 {
		open = r.open - base/r.tilesPerRow
	}
	return base % r.tilesPerRow, open
}

// ---------------------------------------------------------------------------
// Periodic loop emission
// ---------------------------------------------------------------------------

// stride is how unit u+1 of a uniform loop differs from unit u: its
// output keys, GBuf keys and DRAM tile addresses are advanced by out,
// gbuf and addr.
type stride struct{ out, gbuf, addr int }

// maxProbeUnits bounds the units a loop records while looking for its
// period; past it the loop is emitted unit by unit.
const maxProbeUnits = 2048

// builder is one kernel build's working state, pooled across builds so a
// warm build allocates only the folded bodies.
type builder struct {
	gb    gbufAlloc
	out   outAlloc
	rows  rowTracker
	sigs  []int          // the current loop's unit signatures, back to back
	marks []int          // Program.Tail at each unit's start
	last  map[uint64]int // hash of a signature's scalars -> latest unit with it
	prev  []int          // unit -> previous unit with the same scalars (-1 none)
}

var builderPool = sync.Pool{New: func() any { return &builder{last: map[uint64]int{}} }}

// newBuilder resets p for the config's geometry and returns pooled
// trackers emitting into it; release them with builderPool.Put.
func (c Config) newBuilder(p *pim.Program, gbufKeys, outKeys int) *builder {
	p.Reset(c.Buf.GBufEntries, c.Buf.OutEntries)
	b := builderPool.Get().(*builder)
	b.gb.reset(p, c.Buf.GBufEntries, gbufKeys)
	b.out.reset(p, c.Buf.OutEntries, outKeys)
	b.rows = rowTracker{p: p, tilesPerRow: c.Dev.TilesPerRow(), open: -1}
	return b
}

// sig appends the trackers' state at the start of unit u. Keys below
// gLow and oLow (relative) are dead: every unit acquires the keys of
// unit 0 advanced by the stride, so a key below the lowest one unit 0
// acquired is never looked up again by the loop, nor by the code after
// it (which only drains or drops entries).
func (b *builder) sig(dst []int, u int, st stride, gLow, oLow int) []int {
	dst = b.gb.sig(dst, u*st.gbuf, gLow)
	dst = b.out.sig(dst, u*st.out, oLow)
	phase, open := b.rows.state(u * st.addr)
	return append(dst, phase, open)
}

// scalarKey hashes the scalar part of the state at unit u (the ring
// pointers and the row phase and offset): equal states have equal keys,
// so only units sharing a key need their full signatures compared.
func (b *builder) scalarKey(u int, st stride) uint64 {
	phase, open := b.rows.state(u * st.addr)
	h := uint64(14695981039346656037)
	for _, x := range [4]int{b.gb.next, b.out.next, phase, open} {
		h = (h ^ uint64(x)) * 1099511628211
	}
	return h
}

// loop emits units [0, n) through unit. Units below uniform must be
// translates of each other by st (the last units of a loop may be
// partial). When the tracker state at a unit start recurs, the units
// between form the period: the build folds them into a repeated segment
// covering every further whole period below uniform, advances the
// trackers past those periods and emits the remaining units normally.
// The trackers evolve deterministically and commute with translation by
// the stride, so equal relative states emit equal periods: the expanded
// program is exactly what emitting every unit would give.
func (b *builder) loop(n, uniform int, st stride, unit func(u int)) {
	p := b.gb.p
	b.sigs, b.marks, b.prev = b.sigs[:0], b.marks[:0], b.prev[:0]
	clear(b.last)
	probe := min(uniform, maxProbeUnits)
	b.gb.low, b.out.low = math.MaxInt, math.MaxInt
	gLow, oLow := math.MinInt, math.MinInt // nothing is dead before unit 0 ran
	u := 0
	for ; u < probe; u++ {
		if u == 1 {
			gLow, oLow = b.gb.low, b.out.low
		}
		at := len(b.sigs)
		b.sigs = b.sig(b.sigs, u, st, gLow, oLow)
		w := len(b.sigs) - at
		k := b.scalarKey(u, st)
		u1, ok := b.last[k]
		if !ok {
			u1 = -1
		}
		b.prev, b.last[k] = append(b.prev, u1), u
		for u1 >= 0 && !slices.Equal(b.sigs[u1*w:(u1+1)*w], b.sigs[at:]) {
			u1 = b.prev[u1]
		}
		if u1 >= 0 {
			period := u - u1
			reps := 1 + (uniform-u)/period
			if reps > 1 && p.Tail() > b.marks[u1] {
				rowShift := period * st.addr / b.rows.tilesPerRow
				p.Fold(b.marks[u1], reps, rowShift)
				skip := (reps - 1) * period
				b.gb.shift(skip * st.gbuf)
				b.out.shift(skip * st.out)
				if b.rows.open >= 0 {
					b.rows.open += (reps - 1) * rowShift
				}
				u += skip
			}
			break
		}
		b.marks = append(b.marks, p.Tail())
		unit(u)
	}
	for ; u < n; u++ {
		unit(u)
	}
}

// ---------------------------------------------------------------------------
// GEMV / FC
// ---------------------------------------------------------------------------

// GEMV builds into p the flat command program of a (1 x din) * (din x
// dout) GEMV with the weight matrix resident in the channel's DRAM. The
// input vector streams into GBuf in blocks (the whole vector when it
// fits); for each resident block every output group accumulates its MACs,
// with the accumulator file bounding how many groups stay live before a
// partial drain. The compiler owns the weight layout, so tiles are stored
// in traversal order — each weight tile is read exactly once and rows are
// walked sequentially.
func (c Config) GEMV(p *pim.Program, din, dout int) error {
	if din <= 0 || dout <= 0 {
		return fmt.Errorf("kernels: GEMV dims must be positive, got (%d,%d)", din, dout)
	}
	d := c.Dev
	e := d.ElemsPerTile()
	inTiles := ceilDiv(din, e)
	groups := ceilDiv(dout, d.Banks)
	block := min(c.Buf.GBufEntries, inTiles)

	b := c.newBuilder(p, inTiles, groups)
	defer builderPool.Put(b)
	addr := 0 // weights laid out in traversal order
	for k0 := 0; k0 < inTiles; k0 += block {
		k1 := min(k0+block, inTiles)
		for g := 0; g < groups; g++ {
			oe := b.out.acquire(g)
			for k := k0; k < k1; k++ {
				ge := b.gb.acquire(k)
				b.rows.mac(ge, oe, addr)
				addr++
				b.out.mac(oe)
			}
			if k1 == inTiles {
				b.out.release(g) // final block: the group is complete
			}
		}
	}
	b.rows.close()
	b.out.flush()
	return nil
}

// ---------------------------------------------------------------------------
// Attention QK^T
// ---------------------------------------------------------------------------

// QKT builds into p the score kernel for one attention head slice on one
// channel: `tokens` keys resident in DRAM, `queries` query vectors of
// dimension dh (queries > 1 models GQA where a group of query heads shares
// the keys).
//
// With rowReuse=true the kernel iterates DRAM rows in the outer loop and
// queries in the inner loop, re-streaming each query's tiles at every row
// visit (the paper's row-reuse mapping: fewer ACT/PRE, more WR-INP). With
// rowReuse=false each query performs a full pass over the key rows with its
// tiles resident in GBuf (more ACT/PRE, fewer WR-INP). The periodic unit
// is a row visit with row reuse and a score group without.
func (c Config) QKT(p *pim.Program, tokens, dh, queries int, rowReuse bool) error {
	if tokens <= 0 || dh <= 0 || queries <= 0 {
		return fmt.Errorf("kernels: QKT args must be positive, got tokens=%d dh=%d queries=%d", tokens, dh, queries)
	}
	d := c.Dev
	e := d.ElemsPerTile()
	dhTiles := ceilDiv(dh, e)
	groups := ceilDiv(tokens, d.Banks) // one score group = Banks keys
	slotsPerRow := max(d.TilesPerRow()/dhTiles, 1)
	nRows := ceilDiv(groups, slotsPerRow)

	b := c.newBuilder(p, queries*dhTiles, queries*groups)
	defer builderPool.Put(b)
	macGroup := func(q, g int) {
		key := q*groups + g
		oe := b.out.acquire(key)
		for k := 0; k < dhTiles; k++ {
			ge := b.gb.acquire(q*dhTiles + k)
			b.rows.mac(ge, oe, g*dhTiles+k)
			b.out.mac(oe)
		}
		b.out.release(key) // a score group is complete after dhTiles MACs
	}

	if rowReuse {
		st := stride{out: slotsPerRow, addr: slotsPerRow * dhTiles}
		b.loop(nRows, groups/slotsPerRow, st, func(r int) {
			lo, hi := r*slotsPerRow, min((r+1)*slotsPerRow, groups)
			for q := 0; q < queries; q++ {
				// Row-reuse swaps this query's tiles back in at every row.
				if queries > 1 {
					b.gb.invalidateAll()
				}
				for g := lo; g < hi; g++ {
					macGroup(q, g)
				}
			}
		})
	} else {
		for q := 0; q < queries; q++ {
			b.loop(groups, groups, stride{out: 1, addr: dhTiles}, func(g int) { macGroup(q, g) })
		}
	}
	b.rows.close()
	b.out.flush()
	return nil
}

// ---------------------------------------------------------------------------
// Attention SV
// ---------------------------------------------------------------------------

// SV builds into p the value-aggregation kernel for one head slice on one
// channel: y = s * V where s holds `tokens` softmax scores (per query) and
// V is the tokens x dh value cache. The score vector is the streamed input
// (low reuse: the paper's I/O-bound case); the dh outputs form dh/Banks
// groups.
//
// The accumulator file bounds how many output groups can stay live during
// one streaming pass: with the baseline 2-entry OutReg the scores must be
// re-streamed ceil(groups/2) times, while PIMphony's OBuf usually holds all
// groups and streams the scores once. With rowReuse=true and queries > 1,
// DRAM rows are the outer loop and each query's score chunks are
// re-streamed per row visit. The periodic unit is a row visit with row
// reuse and a score chunk of one streaming pass without.
func (c Config) SV(p *pim.Program, tokens, dh, queries int, rowReuse bool) error {
	if tokens <= 0 || dh <= 0 || queries <= 0 {
		return fmt.Errorf("kernels: SV args must be positive, got tokens=%d dh=%d queries=%d", tokens, dh, queries)
	}
	d := c.Dev
	e := d.ElemsPerTile()
	chunks := ceilDiv(tokens, e)   // score tiles per query
	groups := ceilDiv(dh, d.Banks) // output groups (dh across banks)

	b := c.newBuilder(p, queries*chunks, queries*groups)
	defer builderPool.Put(b)
	// V layout is token-major per group batch: addr = k*groups + o so a
	// streaming pass over chunks walks rows sequentially.
	if rowReuse && queries > 1 {
		// Row-outer mapping: every V row is activated once; all queries'
		// score chunks touching that row are streamed per visit.
		chunksPerRow := max(ceilDiv(d.TilesPerRow(), groups), 1)
		nRows := ceilDiv(chunks, chunksPerRow)
		st := stride{gbuf: chunksPerRow, addr: chunksPerRow * groups}
		b.loop(nRows, chunks/chunksPerRow, st, func(r int) {
			lo, hi := r*chunksPerRow, min((r+1)*chunksPerRow, chunks)
			for q := 0; q < queries; q++ {
				b.gb.invalidateAll() // scores swapped in per row visit
				for k := lo; k < hi; k++ {
					ge := b.gb.acquire(q*chunks + k)
					for o := 0; o < groups; o++ {
						oe := b.out.acquire(q*groups + o)
						b.rows.mac(ge, oe, k*groups+o)
						b.out.mac(oe)
					}
				}
			}
		})
	} else {
		// Query-outer mapping: per query, output groups are processed in
		// batches bounded by the accumulator file; scores are re-streamed
		// once per batch.
		batch := min(c.Buf.OutEntries, groups)
		for q := 0; q < queries; q++ {
			for g0 := 0; g0 < groups; g0 += batch {
				g1 := min(g0+batch, groups)
				b.gb.invalidateAll() // a new streaming pass over the scores
				b.loop(chunks, chunks, stride{gbuf: 1, addr: groups}, func(k int) {
					ge := b.gb.acquire(q*chunks + k)
					for o := g0; o < g1; o++ {
						oe := b.out.acquire(q*groups + o)
						b.rows.mac(ge, oe, k*groups+o)
						b.out.mac(oe)
					}
				})
				for o := g0; o < g1; o++ {
					b.out.release(q*groups + o)
				}
			}
		}
	}
	b.rows.close()
	b.out.flush()
	return nil
}

// ---------------------------------------------------------------------------
// Introspection helpers used by experiments and tests
// ---------------------------------------------------------------------------

// Stats summarises a built program.
type Stats struct {
	WrInp, Mac, RdOut, Act, Pre int
}

// StackStats tallies a program's expanded stream by command kind.
func StackStats(p *pim.Program) Stats {
	c := p.Counts()
	return Stats{
		WrInp: c[pim.WRINP],
		Mac:   c[pim.MAC],
		RdOut: c[pim.RDOUT],
		Act:   c[pim.ACT],
		Pre:   c[pim.PRE],
	}
}
