package kernels

// The builders below are the command-by-command kernel builders the
// periodic ones replaced, kept verbatim (renamed) as the oracle: every
// program a production builder emits must expand to exactly the stack
// its oracle pushes, command for command.

import (
	"fmt"

	"pimphony/internal/pim"
)

// oracleNegOnes returns an int slice of length n filled with -1 ("none").
func oracleNegOnes(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = -1
	}
	return s
}

// oracleGBufAlloc manages Global Buffer residency for input tiles. Acquiring a
// non-resident tile emits a WR-INP into a round-robin entry; acquiring a
// resident tile is free (data reuse). Tile keys are dense in [0, keys).
type oracleGBufAlloc struct {
	s     *pim.Stack
	owner []int // entry -> tile key (-1 free)
	slot  []int // tile key -> entry (-1 not resident)
	next  int
}

func newOracleGBufAlloc(s *pim.Stack, entries, keys int) *oracleGBufAlloc {
	return &oracleGBufAlloc{s: s, owner: oracleNegOnes(entries), slot: oracleNegOnes(keys)}
}

// acquire returns the GBuf entry holding the tile, streaming it in first if
// needed.
func (a *oracleGBufAlloc) acquire(key int) int {
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
	a.s.WrInp(e)
	return e
}

// invalidateAll drops residency info (e.g. when a kernel phase reuses keys).
// It visits only the entries, never the key space.
func (a *oracleGBufAlloc) invalidateAll() {
	for e, key := range a.owner {
		if key >= 0 {
			a.slot[key] = -1
			a.owner[e] = -1
		}
	}
}

// oracleOutAlloc manages per-bank accumulator entries. Acquiring an accumulator
// for a new logical output while all entries are live evicts the
// round-robin victim with a partial RD-OUT drain (the EPU merges partial
// sums in the GPR). Output keys are dense in [0, keys).
type oracleOutAlloc struct {
	s     *pim.Stack
	owner []int // entry -> logical output key (-1 free)
	dirty []bool
	slot  []int // output key -> entry (-1 not live)
	next  int
}

func newOracleOutAlloc(s *pim.Stack, entries, keys int) *oracleOutAlloc {
	return &oracleOutAlloc{s: s, owner: oracleNegOnes(entries), dirty: make([]bool, entries), slot: oracleNegOnes(keys)}
}

// acquire returns the accumulator entry for the logical output key,
// draining a victim if necessary.
func (a *oracleOutAlloc) acquire(key int) int {
	if e := a.slot[key]; e >= 0 {
		return e
	}
	e := a.next
	a.next = (a.next + 1) % len(a.owner)
	if old := a.owner[e]; old >= 0 {
		if a.dirty[e] {
			a.s.RdOut(e)
			a.dirty[e] = false
		}
		a.slot[old] = -1
	}
	a.owner[e] = key
	a.slot[key] = e
	return e
}

// mac records an accumulation into the entry.
func (a *oracleOutAlloc) mac(e int) { a.dirty[e] = true }

// release drains the accumulator of key if live and dirty (a completed
// logical output).
func (a *oracleOutAlloc) release(key int) {
	e := a.slot[key]
	if e < 0 {
		return
	}
	if a.dirty[e] {
		a.s.RdOut(e)
		a.dirty[e] = false
	}
	a.slot[key] = -1
	a.owner[e] = -1
}

// flush drains every dirty accumulator (end of kernel).
func (a *oracleOutAlloc) flush() {
	for e := range a.owner {
		if a.owner[e] >= 0 && a.dirty[e] {
			a.s.RdOut(e)
			a.dirty[e] = false
		}
	}
}

// oracleRowTracker emits PRE/ACT pairs when the DRAM row of a MAC changes.
type oracleRowTracker struct {
	s    *pim.Stack
	open int // -1 = closed
}

func newOracleRowTracker(s *pim.Stack) *oracleRowTracker { return &oracleRowTracker{s: s, open: -1} }

// mac emits the row commands needed for tile address addr and then the MAC.
func (r *oracleRowTracker) mac(gbuf, out, addr, tilesPerRow int) {
	row, col := addr/tilesPerRow, addr%tilesPerRow
	if r.open != row {
		if r.open >= 0 {
			r.s.Pre(r.open)
		}
		r.s.Act(row)
		r.open = row
	}
	r.s.Mac(gbuf, out, row, col)
}

// close precharges the open row, if any.
func (r *oracleRowTracker) close() {
	if r.open >= 0 {
		r.s.Pre(r.open)
		r.open = -1
	}
}

// ---------------------------------------------------------------------------
// GEMV / FC
// ---------------------------------------------------------------------------

// oracleGEMV builds into st the command stack of a (1 x din) * (din x dout) GEMV
// with the weight matrix resident in the channel's DRAM. The input vector streams
// into GBuf in blocks (the whole vector when it fits); for each resident
// block every output group accumulates its MACs, with the accumulator file
// bounding how many groups stay live before a partial drain. The compiler
// owns the weight layout, so tiles are stored in traversal order — each
// weight tile is read exactly once and rows are walked sequentially.
func oracleGEMV(c Config, st *pim.Stack, din, dout int) error {
	if din <= 0 || dout <= 0 {
		return fmt.Errorf("kernels: GEMV dims must be positive, got (%d,%d)", din, dout)
	}
	d := c.Dev
	st.Reset(c.Buf.GBufEntries, c.Buf.OutEntries)
	e := d.ElemsPerTile()
	inTiles := ceilDiv(din, e)
	groups := ceilDiv(dout, d.Banks)
	tilesPerRow := d.TilesPerRow()
	block := c.Buf.GBufEntries
	if block > inTiles {
		block = inTiles
	}

	gb := newOracleGBufAlloc(st, c.Buf.GBufEntries, inTiles)
	out := newOracleOutAlloc(st, c.Buf.OutEntries, groups)
	rows := newOracleRowTracker(st)

	addr := 0 // weights laid out in traversal order
	for k0 := 0; k0 < inTiles; k0 += block {
		k1 := k0 + block
		if k1 > inTiles {
			k1 = inTiles
		}
		for g := 0; g < groups; g++ {
			oe := out.acquire(g)
			for k := k0; k < k1; k++ {
				ge := gb.acquire(k)
				rows.mac(ge, oe, addr, tilesPerRow)
				addr++
				out.mac(oe)
			}
			if k1 == inTiles {
				out.release(g) // final block: the group is complete
			}
		}
	}
	rows.close()
	out.flush()
	if err := st.Validate(); err != nil {
		return fmt.Errorf("kernels: GEMV(%d,%d) built invalid stack: %w", din, dout, err)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Attention QK^T
// ---------------------------------------------------------------------------

// oracleQKT builds into st the score kernel for one attention head slice on one
// channel: `tokens` keys resident in DRAM, `queries` query vectors of dimension dh
// (queries > 1 models GQA where a group of query heads shares the keys).
//
// With rowReuse=true the kernel iterates DRAM rows in the outer loop and
// queries in the inner loop, re-streaming each query's tiles at every row
// visit (the paper's row-reuse mapping: fewer ACT/PRE, more WR-INP). With
// rowReuse=false each query performs a full pass over the key rows with its
// tiles resident in GBuf (more ACT/PRE, fewer WR-INP).
func oracleQKT(c Config, st *pim.Stack, tokens, dh, queries int, rowReuse bool) error {
	if tokens <= 0 || dh <= 0 || queries <= 0 {
		return fmt.Errorf("kernels: QKT args must be positive, got tokens=%d dh=%d queries=%d", tokens, dh, queries)
	}
	d := c.Dev
	st.Reset(c.Buf.GBufEntries, c.Buf.OutEntries)
	e := d.ElemsPerTile()
	dhTiles := ceilDiv(dh, e)
	groups := ceilDiv(tokens, d.Banks) // one score group = Banks keys
	tilesPerRow := d.TilesPerRow()
	slotsPerRow := tilesPerRow / dhTiles
	if slotsPerRow == 0 {
		slotsPerRow = 1
	}
	nRows := ceilDiv(groups, slotsPerRow)

	gb := newOracleGBufAlloc(st, c.Buf.GBufEntries, queries*dhTiles)
	out := newOracleOutAlloc(st, c.Buf.OutEntries, queries*groups)
	rows := newOracleRowTracker(st)

	macGroup := func(q, g int) {
		key := q*groups + g
		oe := out.acquire(key)
		for k := 0; k < dhTiles; k++ {
			ge := gb.acquire(q*dhTiles + k)
			addr := g*dhTiles + k
			rows.mac(ge, oe, addr, tilesPerRow)
			out.mac(oe)
		}
		out.release(key) // a score group is complete after dhTiles MACs
	}

	if rowReuse {
		for r := 0; r < nRows; r++ {
			lo, hi := r*slotsPerRow, (r+1)*slotsPerRow
			if hi > groups {
				hi = groups
			}
			for q := 0; q < queries; q++ {
				// Row-reuse swaps this query's tiles back in at every row.
				if queries > 1 {
					gb.invalidateAll()
				}
				for g := lo; g < hi; g++ {
					macGroup(q, g)
				}
			}
		}
	} else {
		for q := 0; q < queries; q++ {
			for g := 0; g < groups; g++ {
				macGroup(q, g)
			}
		}
	}
	rows.close()
	out.flush()
	if err := st.Validate(); err != nil {
		return fmt.Errorf("kernels: QKT(tokens=%d dh=%d q=%d rowReuse=%v) invalid: %w", tokens, dh, queries, rowReuse, err)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Attention SV
// ---------------------------------------------------------------------------

// oracleSV builds into st the value-aggregation kernel for one head slice on one
// channel: y = s * V where s holds `tokens` softmax scores (per query) and V is the
// tokens x dh value cache. The score vector is the streamed input (low
// reuse: the paper's I/O-bound case); the dh outputs form dh/Banks groups.
//
// The accumulator file bounds how many output groups can stay live during
// one streaming pass: with the baseline 2-entry OutReg the scores must be
// re-streamed ceil(groups/2) times, while PIMphony's OBuf usually holds all
// groups and streams the scores once. With rowReuse=true and queries > 1,
// DRAM rows are the outer loop and each query's score chunks are re-streamed
// per row visit.
func oracleSV(c Config, st *pim.Stack, tokens, dh, queries int, rowReuse bool) error {
	if tokens <= 0 || dh <= 0 || queries <= 0 {
		return fmt.Errorf("kernels: SV args must be positive, got tokens=%d dh=%d queries=%d", tokens, dh, queries)
	}
	d := c.Dev
	st.Reset(c.Buf.GBufEntries, c.Buf.OutEntries)
	e := d.ElemsPerTile()
	chunks := ceilDiv(tokens, e)   // score tiles per query
	groups := ceilDiv(dh, d.Banks) // output groups (dh across banks)
	tilesPerRow := d.TilesPerRow()

	gb := newOracleGBufAlloc(st, c.Buf.GBufEntries, queries*chunks)
	out := newOracleOutAlloc(st, c.Buf.OutEntries, queries*groups)
	rows := newOracleRowTracker(st)

	// V layout is token-major per group batch: addr = k*groups + o so a
	// streaming pass over chunks walks rows sequentially.
	if rowReuse && queries > 1 {
		// Row-outer mapping: every V row is activated once; all queries'
		// score chunks touching that row are streamed per visit.
		chunksPerRow := ceilDiv(tilesPerRow, groups)
		if chunksPerRow == 0 {
			chunksPerRow = 1
		}
		nRows := ceilDiv(chunks, chunksPerRow)
		for r := 0; r < nRows; r++ {
			lo, hi := r*chunksPerRow, (r+1)*chunksPerRow
			if hi > chunks {
				hi = chunks
			}
			for q := 0; q < queries; q++ {
				gb.invalidateAll() // scores swapped in per row visit
				for k := lo; k < hi; k++ {
					ge := gb.acquire(q*chunks + k)
					for o := 0; o < groups; o++ {
						oe := out.acquire(q*groups + o)
						rows.mac(ge, oe, k*groups+o, tilesPerRow)
						out.mac(oe)
					}
				}
			}
		}
	} else {
		// Query-outer mapping: per query, output groups are processed in
		// batches bounded by the accumulator file; scores are re-streamed
		// once per batch.
		batch := c.Buf.OutEntries
		if batch > groups {
			batch = groups
		}
		for q := 0; q < queries; q++ {
			for g0 := 0; g0 < groups; g0 += batch {
				g1 := g0 + batch
				if g1 > groups {
					g1 = groups
				}
				gb.invalidateAll() // a new streaming pass over the scores
				for k := 0; k < chunks; k++ {
					ge := gb.acquire(q*chunks + k)
					for o := g0; o < g1; o++ {
						oe := out.acquire(q*groups + o)
						rows.mac(ge, oe, k*groups+o, tilesPerRow)
						out.mac(oe)
					}
				}
				for o := g0; o < g1; o++ {
					out.release(q*groups + o)
				}
			}
		}
	}
	rows.close()
	out.flush()
	if err := st.Validate(); err != nil {
		return fmt.Errorf("kernels: SV(tokens=%d dh=%d q=%d rowReuse=%v) invalid: %w", tokens, dh, queries, rowReuse, err)
	}
	return nil
}
