// Package memory implements the two KV-cache management schemes compared in
// Sec. VI of the paper: conventional static allocation, which reserves
// T_max-sized regions per request because PIM instruction streams embed
// fixed physical addresses, and PIMphony's Dynamic PIM Access (DPA)
// allocation, which lazily maps 1 MB chunks through a VA2PA table as a
// request's KV cache grows.
package memory

import (
	"fmt"
	"slices"
)

// DefaultChunkBytes is the paper's DPA allocation granularity.
const DefaultChunkBytes = 1 << 20

// Allocator is a KV-cache capacity manager for one memory pool (a module or
// a whole system partition).
type Allocator interface {
	Name() string
	// Admit reserves space for a new request with the given current
	// context length; it fails if capacity is insufficient.
	Admit(reqID, tokens int) error
	// Grow extends a request's context to newTokens (monotonically).
	Grow(reqID, newTokens int) error
	// Release frees all memory of a request.
	Release(reqID int) error
	// CanAdmit reports whether a request of the given length would fit.
	CanAdmit(tokens int) bool
	// GrowBudget is the batched next-boundary query behind the serving
	// engine's multi-step fast-forward: how many additional tokens each
	// of the given admitted requests can absorb, all growing one token
	// per step in lockstep, before a Grow call could fail (the
	// preemption/eviction trigger a fast-forward must not skip past).
	// Growth within the budget may still map memory — allocation that
	// cannot fail is not an event, and a single batched Grow to the
	// final count leaves the allocator in the same observable state as
	// one call per token. Zero means the very next lockstep Grow could
	// hit a boundary; an unknown request ID also yields zero.
	GrowBudget(reqIDs []int) int
	// LiveBytes is the memory holding actual KV data.
	LiveBytes() int64
	// ReservedBytes is the memory unavailable to other requests.
	ReservedBytes() int64
	// CapacityBytes is the pool size.
	CapacityBytes() int64
}

// Utilization is live / reserved bytes: how much of the memory an
// allocator has claimed actually holds KV data. When nothing is reserved
// it is defined as zero.
func Utilization(a Allocator) float64 {
	r := a.ReservedBytes()
	if r == 0 {
		return 0
	}
	return float64(a.LiveBytes()) / float64(r)
}

// PoolUtilization is live / pool capacity — the Fig. 19 metric, evaluated
// when the admission loop has filled the pool: static T_max reservations
// strand most of the pool (the paper measures 31.0-40.5%), while DPA's
// lazy chunks reach ~75%.
func PoolUtilization(a Allocator) float64 {
	c := a.CapacityBytes()
	if c == 0 {
		return 0
	}
	return float64(a.LiveBytes()) / float64(c)
}

// ---------------------------------------------------------------------------
// Static allocator
// ---------------------------------------------------------------------------

// Static reserves a fixed T_max-sized KV region per admitted request,
// mirroring conventional PIM systems whose compiled instruction streams
// address physical memory directly (Fig. 10a).
type Static struct {
	capacity      int64
	bytesPerToken int64
	tmax          int
	live          map[int]int64 // request -> live KV bytes
	reservePer    int64
	liveSum       int64 // Σ live, so LiveBytes is O(1) on the sampling path
}

// NewStatic builds a static allocator for a pool of the given capacity.
func NewStatic(capacity, bytesPerToken int64, tmax int) (*Static, error) {
	if capacity <= 0 || bytesPerToken <= 0 || tmax <= 0 {
		return nil, fmt.Errorf("memory: static allocator params must be positive")
	}
	return &Static{
		capacity:      capacity,
		bytesPerToken: bytesPerToken,
		tmax:          tmax,
		live:          make(map[int]int64),
		reservePer:    int64(tmax) * bytesPerToken,
	}, nil
}

// Name implements Allocator.
func (s *Static) Name() string { return "static" }

// Admit implements Allocator.
func (s *Static) Admit(reqID, tokens int) error {
	if _, ok := s.live[reqID]; ok {
		return fmt.Errorf("memory: request %d already admitted", reqID)
	}
	if tokens > s.tmax {
		return fmt.Errorf("memory: request %d context %d exceeds T_max %d", reqID, tokens, s.tmax)
	}
	if !s.CanAdmit(tokens) {
		return fmt.Errorf("memory: static pool full (%d reserved of %d)", s.ReservedBytes(), s.capacity)
	}
	s.live[reqID] = int64(tokens) * s.bytesPerToken
	s.liveSum += s.live[reqID]
	return nil
}

// Grow implements Allocator. Static growth never allocates — the region was
// pre-reserved — but overflowing T_max is fatal.
func (s *Static) Grow(reqID, newTokens int) error {
	cur, ok := s.live[reqID]
	if !ok {
		return fmt.Errorf("memory: request %d not admitted", reqID)
	}
	if newTokens > s.tmax {
		return fmt.Errorf("memory: request %d grew past T_max %d", reqID, s.tmax)
	}
	nb := int64(newTokens) * s.bytesPerToken
	if nb < cur {
		return fmt.Errorf("memory: request %d shrank (%d -> %d tokens)", reqID, cur/s.bytesPerToken, newTokens)
	}
	s.liveSum += nb - cur
	s.live[reqID] = nb
	return nil
}

// Release implements Allocator.
func (s *Static) Release(reqID int) error {
	b, ok := s.live[reqID]
	if !ok {
		return fmt.Errorf("memory: request %d not admitted", reqID)
	}
	s.liveSum -= b
	delete(s.live, reqID)
	return nil
}

// CanAdmit implements Allocator.
func (s *Static) CanAdmit(tokens int) bool {
	if tokens > s.tmax {
		return false
	}
	return s.ReservedBytes()+s.reservePer <= s.capacity
}

// GrowBudget implements Allocator: static regions are pre-reserved, so
// growth never allocates and can only fail past T_max — each request's
// budget is its headroom to the window.
func (s *Static) GrowBudget(reqIDs []int) int {
	budget := -1
	for _, id := range reqIDs {
		b, ok := s.live[id]
		if !ok {
			return 0
		}
		if h := s.tmax - int(b/s.bytesPerToken); budget < 0 || h < budget {
			budget = h
		}
	}
	if budget < 0 {
		return 0
	}
	return budget
}

// LiveBytes implements Allocator.
func (s *Static) LiveBytes() int64 { return s.liveSum }

// ReservedBytes implements Allocator.
func (s *Static) ReservedBytes() int64 { return int64(len(s.live)) * s.reservePer }

// CapacityBytes implements Allocator.
func (s *Static) CapacityBytes() int64 { return s.capacity }

// MaxBatch is the static batch-size bound: capacity / T_max reservation.
func (s *Static) MaxBatch() int { return int(s.capacity / s.reservePer) }

// ---------------------------------------------------------------------------
// DPA allocator
// ---------------------------------------------------------------------------

// ChunkID is a physical chunk index within the pool.
type ChunkID int

// DPA implements lazy chunked allocation with virtual-to-physical chunk
// translation, the software model of the on-module dispatcher's VA2PA table
// (Fig. 11). Chunks are handed out on demand as requests grow, so internal
// fragmentation is limited to the final chunk of each request.
//
// The free list is lazy, too. Conceptually it is the stack
// [nChunks-1, ..., fresh] ++ released: the never-handed-out IDs above the
// fresh watermark in descending order (so pops hand them out ascending),
// then every released chunk in release order. Only the released tail is
// stored; the fresh run is the watermark alone, so building an allocator
// costs O(1) whatever the pool size.
type DPA struct {
	capacity      int64
	bytesPerToken int64
	chunkBytes    int64
	nChunks       int
	fresh         int               // lowest never-handed-out chunk ID
	released      []ChunkID         // released chunks, popped from the end first
	va2pa         map[int][]ChunkID // request -> virtual chunk order -> physical
	liveTokens    map[int]int
	hostMessages  int // host<->module allocation messages (Sec. VI-C)

	// Running aggregates so LiveBytes/ReservedBytes are O(1) — the
	// serving engine samples capacity on every leap, which made the map
	// walks here a measurable share of the whole simulation.
	liveTokSum int64 // Σ liveTokens
	mappedSum  int64 // Σ len(va2pa[id])

	// growScratch snapshots (liveTokens, mapped chunks) per request so
	// GrowBudget's monotone probes walk a slice instead of two maps.
	growScratch []growSnap
}

type growSnap struct{ live, have int }

// NewDPA builds a DPA allocator with the given chunk granularity.
func NewDPA(capacity, bytesPerToken, chunkBytes int64) (*DPA, error) {
	if capacity <= 0 || bytesPerToken <= 0 || chunkBytes <= 0 {
		return nil, fmt.Errorf("memory: DPA allocator params must be positive")
	}
	n := int(capacity / chunkBytes)
	if n == 0 {
		return nil, fmt.Errorf("memory: capacity %d below one chunk (%d)", capacity, chunkBytes)
	}
	return &DPA{
		capacity:      capacity,
		bytesPerToken: bytesPerToken,
		chunkBytes:    chunkBytes,
		nChunks:       n,
		va2pa:         make(map[int][]ChunkID),
		liveTokens:    make(map[int]int),
	}, nil
}

// Name implements Allocator.
func (d *DPA) Name() string { return "dpa" }

// chunksFor is the chunk count needed for a context length.
func (d *DPA) chunksFor(tokens int) int {
	b := int64(tokens) * d.bytesPerToken
	return int((b + d.chunkBytes - 1) / d.chunkBytes)
}

// Admit implements Allocator.
func (d *DPA) Admit(reqID, tokens int) error {
	if _, ok := d.va2pa[reqID]; ok {
		return fmt.Errorf("memory: request %d already admitted", reqID)
	}
	need := d.chunksFor(tokens)
	if free := d.free(); need > free {
		return fmt.Errorf("memory: DPA pool has %d free chunks, need %d", free, need)
	}
	d.va2pa[reqID] = d.take(make([]ChunkID, 0, need), need)
	d.liveTokens[reqID] = tokens
	d.liveTokSum += int64(tokens)
	d.mappedSum += int64(need)
	d.hostMessages++ // initial VA2PA setup
	return nil
}

// Grow implements Allocator: allocates additional chunks only when the new
// context spills past the last mapped chunk (lazy allocation).
func (d *DPA) Grow(reqID, newTokens int) error {
	cur, ok := d.liveTokens[reqID]
	if !ok {
		return fmt.Errorf("memory: request %d not admitted", reqID)
	}
	if newTokens < cur {
		return fmt.Errorf("memory: request %d shrank (%d -> %d)", reqID, cur, newTokens)
	}
	have := len(d.va2pa[reqID])
	need := d.chunksFor(newTokens)
	if extra := need - have; extra > 0 {
		if free := d.free(); extra > free {
			return fmt.Errorf("memory: DPA pool exhausted growing request %d (need %d chunks, %d free)", reqID, extra, free)
		}
		d.va2pa[reqID] = d.take(d.va2pa[reqID], extra)
		d.mappedSum += int64(extra)
		d.hostMessages++ // one host message per chunk-allocation event
	}
	d.liveTokSum += int64(newTokens - cur)
	d.liveTokens[reqID] = newTokens
	return nil
}

// Release implements Allocator.
func (d *DPA) Release(reqID int) error {
	chunks, ok := d.va2pa[reqID]
	if !ok {
		return fmt.Errorf("memory: request %d not admitted", reqID)
	}
	d.released = append(d.released, chunks...)
	d.mappedSum -= int64(len(chunks))
	d.liveTokSum -= int64(d.liveTokens[reqID])
	delete(d.va2pa, reqID)
	delete(d.liveTokens, reqID)
	d.hostMessages++
	return nil
}

// CanAdmit implements Allocator.
func (d *DPA) CanAdmit(tokens int) bool { return d.chunksFor(tokens) <= d.free() }

// GrowBudget implements Allocator: the largest lockstep growth whose
// chunk demand across the whole batch fits the free list. Growth within
// the budget cannot fail at any step prefix (chunk demand is monotone
// in the step count), so the fast-forward can leap through it; lazy
// allocation past the budget can exhaust the pool — the preemption
// trigger. A batched Grow covering several chunks coalesces the
// per-chunk host messages into one, which only the host-message
// counter (not any capacity or serving metric) can observe.
func (d *DPA) GrowBudget(reqIDs []int) int {
	if len(reqIDs) == 0 {
		return 0
	}
	// Snapshot each request's live tokens and mapped chunks once; the
	// monotone probes below then walk a slice instead of two maps.
	snap := d.growScratch[:0]
	for _, id := range reqIDs {
		live, ok := d.liveTokens[id]
		if !ok {
			return 0
		}
		snap = append(snap, growSnap{live: live, have: len(d.va2pa[id])})
	}
	d.growScratch = snap
	free := d.free()
	// Chunks the batch must allocate to grow n tokens per request.
	need := func(n int) int {
		total := 0
		for _, s := range snap {
			total += d.chunksFor(s.live+n) - s.have
		}
		return total
	}
	if need(1) > free {
		return 0
	}
	// Exponential then binary search for the largest affordable n: the
	// demand is monotone in n, and the probe stays cheap because leap
	// horizons are bounded by completions long before the cap.
	hi := 1
	for need(hi) <= free && hi < 1<<30 {
		hi <<= 1
	}
	lo := hi >> 1 // need(lo) <= free < need(hi), or hi hit the cap
	if hi >= 1<<30 && need(hi) <= free {
		return hi
	}
	for lo+1 < hi {
		mid := lo + (hi-lo)/2
		if need(mid) <= free {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// LiveBytes implements Allocator.
func (d *DPA) LiveBytes() int64 { return d.liveTokSum * d.bytesPerToken }

// ReservedBytes implements Allocator.
func (d *DPA) ReservedBytes() int64 { return d.mappedSum * d.chunkBytes }

// CapacityBytes implements Allocator.
func (d *DPA) CapacityBytes() int64 { return d.capacity }

// HostMessages counts host<->module management messages so far; the paper
// argues these are rare (not per decode step).
func (d *DPA) HostMessages() int { return d.hostMessages }

// Translate resolves a request-relative virtual byte address to a physical
// byte address through the VA2PA table, mirroring the on-module
// dispatcher's decode step.
func (d *DPA) Translate(reqID int, vaddr int64) (int64, error) {
	chunks, ok := d.va2pa[reqID]
	if !ok {
		return 0, fmt.Errorf("memory: request %d not admitted", reqID)
	}
	vc := int(vaddr / d.chunkBytes)
	if vc < 0 || vc >= len(chunks) {
		return 0, fmt.Errorf("memory: request %d vaddr %d beyond mapped region", reqID, vaddr)
	}
	return int64(chunks[vc])*d.chunkBytes + vaddr%d.chunkBytes, nil
}

// Chunks returns a copy of the request's physical chunk list (for tests and
// the dispatcher model).
func (d *DPA) Chunks(reqID int) []ChunkID {
	src := d.va2pa[reqID]
	out := make([]ChunkID, len(src))
	copy(out, src)
	return out
}

// free is the free-list length: the fresh run plus the released tail.
func (d *DPA) free() int { return d.nChunks - d.fresh + len(d.released) }

// take pops the free list's last n chunks (n <= free()) and appends them
// to dst in list order: first the fresh IDs the released tail does not
// cover, descending fresh+k-1 ... fresh, then the whole released tail.
// dst grows once, to the capacity a single append of n chunks would give.
func (d *DPA) take(dst []ChunkID, n int) []ChunkID {
	dst = slices.Grow(dst, n)
	if k := n - len(d.released); k > 0 {
		for id := d.fresh + k - 1; id >= d.fresh; id-- {
			dst = append(dst, ChunkID(id))
		}
		d.fresh += k
		n -= k
	}
	rest := len(d.released) - n
	dst = append(dst, d.released[rest:]...)
	d.released = d.released[:rest]
	return dst
}

// ---------------------------------------------------------------------------
// Paged allocator
// ---------------------------------------------------------------------------

// Paged reserves exactly the bytes a request's token count occupies —
// the software model of GPU paged-attention, whose page tables make
// reservation granularity effectively the token (the page-size
// fragmentation is already folded into the pool's paged-attention
// efficiency derate). Unlike Static there is no fixed T_max region, and
// unlike DPA there is no chunk rounding: admission and growth succeed
// while the byte sum fits the pool. The GPU backend admits batch decode
// at the full context+window horizon (upfront reservation) and serving
// at the live context (growth may fail mid-decode, triggering
// preemption — the vLLM recompute path).
type Paged struct {
	capacity      int64
	bytesPerToken int64
	tokens        map[int]int // request -> reserved tokens
	reserved      int64
}

// NewPaged builds a paged allocator for a pool of the given capacity.
func NewPaged(capacity, bytesPerToken int64) (*Paged, error) {
	if capacity <= 0 || bytesPerToken <= 0 {
		return nil, fmt.Errorf("memory: paged allocator params must be positive")
	}
	return &Paged{capacity: capacity, bytesPerToken: bytesPerToken, tokens: make(map[int]int)}, nil
}

// Name implements Allocator.
func (p *Paged) Name() string { return "paged" }

// Admit implements Allocator.
func (p *Paged) Admit(reqID, tokens int) error {
	if _, ok := p.tokens[reqID]; ok {
		return fmt.Errorf("memory: request %d already admitted", reqID)
	}
	need := int64(tokens) * p.bytesPerToken
	if p.reserved+need > p.capacity {
		return fmt.Errorf("memory: paged pool full (%d of %d bytes)", p.reserved, p.capacity)
	}
	p.tokens[reqID] = tokens
	p.reserved += need
	return nil
}

// Grow implements Allocator: extends the request's reservation to
// newTokens, failing when the pool cannot hold the extra bytes. Growth
// at or below the current reservation is a no-op — the reservation is a
// high-water mark, and decode within an upfront context+window
// reservation never allocates.
func (p *Paged) Grow(reqID, newTokens int) error {
	cur, ok := p.tokens[reqID]
	if !ok {
		return fmt.Errorf("memory: request %d not admitted", reqID)
	}
	if newTokens <= cur {
		return nil
	}
	extra := int64(newTokens-cur) * p.bytesPerToken
	if p.reserved+extra > p.capacity {
		return fmt.Errorf("memory: paged pool full (%d of %d bytes)", p.reserved, p.capacity)
	}
	p.tokens[reqID] = newTokens
	p.reserved += extra
	return nil
}

// Release implements Allocator.
func (p *Paged) Release(reqID int) error {
	cur, ok := p.tokens[reqID]
	if !ok {
		return fmt.Errorf("memory: request %d not admitted", reqID)
	}
	p.reserved -= int64(cur) * p.bytesPerToken
	delete(p.tokens, reqID)
	return nil
}

// CanAdmit implements Allocator.
func (p *Paged) CanAdmit(tokens int) bool {
	return p.reserved+int64(tokens)*p.bytesPerToken <= p.capacity
}

// GrowBudget implements Allocator: paged growth reserves every token but
// can only fail at pool exhaustion, so the lockstep budget is the free
// pool split evenly across the growing requests (conservative for
// requests still decoding inside an upfront high-water reservation,
// whose Grow calls no-op).
func (p *Paged) GrowBudget(reqIDs []int) int {
	if len(reqIDs) == 0 {
		return 0
	}
	for _, id := range reqIDs {
		if _, ok := p.tokens[id]; !ok {
			return 0
		}
	}
	return int((p.capacity - p.reserved) / p.bytesPerToken / int64(len(reqIDs)))
}

// LiveBytes implements Allocator: every reserved byte is backed by KV
// data (no over-reservation).
func (p *Paged) LiveBytes() int64 { return p.reserved }

// ReservedBytes implements Allocator.
func (p *Paged) ReservedBytes() int64 { return p.reserved }

// CapacityBytes implements Allocator.
func (p *Paged) CapacityBytes() int64 { return p.capacity }

var (
	_ Allocator = (*Static)(nil)
	_ Allocator = (*DPA)(nil)
	_ Allocator = (*Paged)(nil)
)
