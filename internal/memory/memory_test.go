package memory

import (
	"math/rand"
	"testing"
	"testing/quick"
)

const (
	kib = 1 << 10
	mib = 1 << 20
	gib = 1 << 30
)

func newStaticT(t *testing.T) *Static {
	t.Helper()
	// 1 GiB pool, 128 KiB/token (7B GQA), T_max 4096 -> 512 MiB per slot.
	s, err := NewStatic(gib, 128*kib, 4096)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newDPAT(t *testing.T) *DPA {
	t.Helper()
	d, err := NewDPA(gib, 128*kib, DefaultChunkBytes)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestStaticReservesTmax(t *testing.T) {
	s := newStaticT(t)
	if err := s.Admit(0, 100); err != nil {
		t.Fatal(err)
	}
	if got := s.ReservedBytes(); got != 4096*128*kib {
		t.Errorf("reserved = %d, want full T_max slot", got)
	}
	if got := s.LiveBytes(); got != 100*128*kib {
		t.Errorf("live = %d", got)
	}
	if u := Utilization(s); u > 0.03 {
		t.Errorf("utilization of a short request should be tiny, got %f", u)
	}
}

func TestStaticBatchBound(t *testing.T) {
	s := newStaticT(t)
	if s.MaxBatch() != 2 {
		t.Fatalf("MaxBatch = %d, want 2 (1 GiB / 512 MiB)", s.MaxBatch())
	}
	if err := s.Admit(0, 10); err != nil {
		t.Fatal(err)
	}
	if err := s.Admit(1, 10); err != nil {
		t.Fatal(err)
	}
	if err := s.Admit(2, 10); err == nil {
		t.Fatal("third request should be rejected: static pool is full")
	}
	if s.CanAdmit(10) {
		t.Fatal("CanAdmit should be false when full")
	}
}

func TestStaticRejectsOverTmax(t *testing.T) {
	s := newStaticT(t)
	if err := s.Admit(0, 5000); err == nil {
		t.Fatal("context beyond T_max must be rejected")
	}
	if err := s.Admit(0, 4000); err != nil {
		t.Fatal(err)
	}
	if err := s.Grow(0, 5000); err == nil {
		t.Fatal("growth past T_max must fail")
	}
	if err := s.Grow(0, 3000); err == nil {
		t.Fatal("shrinking must fail")
	}
}

func TestDPAAdmitsMoreRequestsThanStatic(t *testing.T) {
	s := newStaticT(t)
	d := newDPAT(t)
	// Short requests (512 tokens = 64 MiB live).
	admittedStatic, admittedDPA := 0, 0
	for i := 0; ; i++ {
		if s.Admit(i, 512) != nil {
			break
		}
		admittedStatic++
	}
	for i := 0; ; i++ {
		if d.Admit(i, 512) != nil {
			break
		}
		admittedDPA++
	}
	if admittedStatic != 2 {
		t.Errorf("static admitted %d, want 2", admittedStatic)
	}
	if admittedDPA != 16 {
		t.Errorf("DPA admitted %d, want 16 (1 GiB / 64 MiB)", admittedDPA)
	}
	// The effective-batch gain is the Fig. 4 "effective batch" effect.
	if admittedDPA <= admittedStatic {
		t.Error("DPA must admit strictly more short requests")
	}
}

func TestDPAUtilizationBeatsStatic(t *testing.T) {
	s := newStaticT(t)
	d := newDPAT(t)
	for i := 0; i < 2; i++ {
		if err := s.Admit(i, 1500); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if err := d.Admit(i, 1500); err != nil {
			t.Fatal(err)
		}
	}
	us, ud := Utilization(s), Utilization(d)
	if ud <= us {
		t.Errorf("DPA utilization (%.2f) should exceed static (%.2f)", ud, us)
	}
	// DPA fragmentation is bounded by one chunk per request.
	if ud < 0.99 {
		t.Errorf("DPA utilization %.3f; fragmentation should be < 1 chunk/request", ud)
	}
}

func TestDPALazyGrowth(t *testing.T) {
	d := newDPAT(t)
	if err := d.Admit(0, 8); err != nil { // 8 tokens = 1 MiB = 1 chunk
		t.Fatal(err)
	}
	if got := len(d.Chunks(0)); got != 1 {
		t.Fatalf("chunks = %d, want 1", got)
	}
	msgs := d.HostMessages()
	// Growing within the chunk allocates nothing and sends no messages.
	if err := d.Grow(0, 8); err != nil {
		t.Fatal(err)
	}
	if d.HostMessages() != msgs {
		t.Error("no-op growth should not message the host")
	}
	// Spilling allocates exactly one more chunk.
	if err := d.Grow(0, 9); err != nil {
		t.Fatal(err)
	}
	if got := len(d.Chunks(0)); got != 2 {
		t.Fatalf("chunks after spill = %d, want 2", got)
	}
	if d.HostMessages() != msgs+1 {
		t.Error("chunk spill should message the host once")
	}
}

func TestDPATranslate(t *testing.T) {
	d := newDPAT(t)
	if err := d.Admit(7, 24); err != nil { // 3 MiB -> 3 chunks
		t.Fatal(err)
	}
	chunks := d.Chunks(7)
	if len(chunks) != 3 {
		t.Fatalf("want 3 chunks, got %d", len(chunks))
	}
	for vc := 0; vc < 3; vc++ {
		va := int64(vc)*mib + 12345
		pa, err := d.Translate(7, va)
		if err != nil {
			t.Fatal(err)
		}
		want := int64(chunks[vc])*mib + 12345
		if pa != want {
			t.Errorf("Translate(vc=%d) = %d, want %d", vc, pa, want)
		}
	}
	if _, err := d.Translate(7, 3*mib); err == nil {
		t.Error("translation beyond mapped region must fail")
	}
	if _, err := d.Translate(99, 0); err == nil {
		t.Error("translation for unknown request must fail")
	}
}

func TestDPANonContiguousAfterChurn(t *testing.T) {
	d := newDPAT(t)
	if err := d.Admit(0, 16); err != nil { // 2 chunks
		t.Fatal(err)
	}
	if err := d.Admit(1, 16); err != nil {
		t.Fatal(err)
	}
	if err := d.Release(0); err != nil {
		t.Fatal(err)
	}
	if err := d.Admit(2, 24); err != nil { // 3 chunks: reuses freed + fresh
		t.Fatal(err)
	}
	chunks := d.Chunks(2)
	contig := true
	for i := 1; i < len(chunks); i++ {
		if chunks[i] != chunks[i-1]+1 {
			contig = false
		}
	}
	if contig {
		t.Log("note: chunks happened to be contiguous; VA2PA still required")
	}
	// Translation must remain correct regardless of physical layout.
	for vc := range chunks {
		pa, err := d.Translate(2, int64(vc)*mib)
		if err != nil {
			t.Fatal(err)
		}
		if pa != int64(chunks[vc])*mib {
			t.Errorf("vc %d -> pa %d, want chunk base %d", vc, pa, int64(chunks[vc])*mib)
		}
	}
}

func TestReleaseUnknownFails(t *testing.T) {
	s := newStaticT(t)
	d := newDPAT(t)
	if err := s.Release(9); err == nil {
		t.Error("static release of unknown request should fail")
	}
	if err := d.Release(9); err == nil {
		t.Error("DPA release of unknown request should fail")
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := NewStatic(0, 1, 1); err == nil {
		t.Error("zero capacity static should fail")
	}
	if _, err := NewDPA(10, 1, 100); err == nil {
		t.Error("capacity below one chunk should fail")
	}
	if _, err := NewDPA(gib, -1, mib); err == nil {
		t.Error("negative bytes/token should fail")
	}
}

// NewDPA keeps the free list as a watermark: building an allocator costs
// the same allocations for a 2 MiB pool as for a 64 GiB one.
func TestNewDPAAllocsIndependentOfCapacity(t *testing.T) {
	allocs := func(capacity int64) float64 {
		return testing.AllocsPerRun(100, func() {
			if _, err := NewDPA(capacity, 128*kib, DefaultChunkBytes); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(2*mib), allocs(64*gib); large != small {
		t.Fatalf("NewDPA allocates %v times for 64 GiB, %v for 2 MiB; want equal", large, small)
	}
}

// Property: under random admit/grow/release traffic the DPA allocator never
// double-maps a physical chunk, never leaks, and utilization stays in [0,1].
func TestDPAInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, err := NewDPA(64*mib, 8*kib, mib)
		if err != nil {
			return false
		}
		live := map[int]int{}
		nextID := 0
		for step := 0; step < 200; step++ {
			switch rng.Intn(3) {
			case 0:
				tok := rng.Intn(2000) + 1
				if d.CanAdmit(tok) {
					if d.Admit(nextID, tok) != nil {
						return false
					}
					live[nextID] = tok
					nextID++
				}
			case 1:
				for id, tok := range live {
					nt := tok + rng.Intn(500)
					if err := d.Grow(id, nt); err == nil {
						live[id] = nt
					}
					break
				}
			case 2:
				for id := range live {
					if d.Release(id) != nil {
						return false
					}
					delete(live, id)
					break
				}
			}
			// Invariant: no physical chunk is mapped twice.
			seen := map[ChunkID]bool{}
			var mapped int64
			for id := range live {
				for _, c := range d.Chunks(id) {
					if seen[c] {
						return false
					}
					seen[c] = true
					mapped++
				}
			}
			if mapped*mib != d.ReservedBytes() {
				return false
			}
			if u := Utilization(d); u < 0 || u > 1.0000001 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: static reserved bytes is always batch * T_max reservation and
// live never exceeds reserved.
func TestStaticInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, err := NewStatic(gib, 64*kib, 2048)
		if err != nil {
			return false
		}
		admitted := 0
		for i := 0; i < 20; i++ {
			tok := rng.Intn(2048) + 1
			if s.CanAdmit(tok) {
				if s.Admit(i, tok) != nil {
					return false
				}
				admitted++
			}
		}
		if s.ReservedBytes() != int64(admitted)*2048*64*kib {
			return false
		}
		return s.LiveBytes() <= s.ReservedBytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// ---------------------------------------------------------------------------
// Serving-path edge cases: free-order independence, exhaustion, and
// reserve/release accounting under preemption-style churn.
// ---------------------------------------------------------------------------

// TestFreeOrderIndependence: whatever order requests are released in —
// FIFO, LIFO, interleaved, as completion and preemption mix them on the
// serving path — the pool ends empty and re-admits the same workload.
func TestFreeOrderIndependence(t *testing.T) {
	const bpt = 1 << 10
	orders := [][]int{
		{0, 1, 2, 3},
		{3, 2, 1, 0},
		{1, 3, 0, 2},
		{2, 0, 3, 1},
	}
	mk := func() []Allocator {
		s, err := NewStatic(64<<20, bpt, 1024)
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewDPA(64<<20, bpt, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		return []Allocator{s, d}
	}
	for _, order := range orders {
		for _, a := range mk() {
			for id := 0; id < 4; id++ {
				if err := a.Admit(id, 600+id*13); err != nil {
					t.Fatalf("%s order %v: admit %d: %v", a.Name(), order, id, err)
				}
			}
			for _, id := range order {
				if err := a.Release(id); err != nil {
					t.Fatalf("%s order %v: release %d: %v", a.Name(), order, id, err)
				}
			}
			if a.ReservedBytes() != 0 || a.LiveBytes() != 0 {
				t.Errorf("%s order %v: reserved %d / live %d after full release",
					a.Name(), order, a.ReservedBytes(), a.LiveBytes())
			}
			// The drained pool must accept the same workload again, and
			// at full size — no fragmentation regardless of free order.
			for id := 10; id < 14; id++ {
				if err := a.Admit(id, 600); err != nil {
					t.Errorf("%s order %v: re-admit %d failed: %v", a.Name(), order, id, err)
				}
			}
		}
	}
}

// TestDPAChunkTableExhaustion drives the chunk table to exactly zero
// free entries and checks Admit, Grow and CanAdmit all fail cleanly,
// then recover after one release.
func TestDPAChunkTableExhaustion(t *testing.T) {
	const chunk = 1 << 20
	d, err := NewDPA(4*chunk, 1<<10, chunk) // 4 chunks, 1024 tokens each
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Admit(1, 2048); err != nil { // 2 chunks
		t.Fatal(err)
	}
	if err := d.Admit(2, 2048); err != nil { // 2 chunks -> table full
		t.Fatal(err)
	}
	if d.ReservedBytes() != 4*chunk {
		t.Fatalf("reserved %d, want the whole pool", d.ReservedBytes())
	}
	if d.CanAdmit(1) {
		t.Error("CanAdmit should fail with zero free chunks")
	}
	if err := d.Admit(3, 1); err == nil {
		t.Error("Admit should fail with zero free chunks")
	}
	if err := d.Grow(1, 2049); err == nil {
		t.Error("Grow past the last mapped chunk should fail when the table is exhausted")
	}
	// The failed Grow must not have corrupted state: token count intact.
	if got := d.LiveBytes(); got != 2*2048<<10 {
		t.Errorf("live bytes %d after failed grow, want %d", got, 2*2048<<10)
	}
	if err := d.Release(2); err != nil {
		t.Fatal(err)
	}
	if err := d.Grow(1, 2049); err != nil {
		t.Errorf("Grow should succeed after release: %v", err)
	}
	if !d.CanAdmit(1024) {
		t.Error("CanAdmit should succeed after release")
	}
}

// TestAccountingUnderPreemptionChurn mimics the serving engine's
// preemption pattern — admit, grow a few steps, evict (release) the
// youngest, re-admit it at its grown size — and checks the
// reserve/release accounting invariants hold throughout: reserved >=
// live, reserved == 0 when idle, and every release matched by exactly
// one prior admission.
func TestAccountingUnderPreemptionChurn(t *testing.T) {
	const bpt = 512 << 10 // 0.5 MiB/token, the 7B-class footprint
	d, err := NewDPA(64<<20, bpt, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		if d.LiveBytes() > d.ReservedBytes() {
			t.Fatalf("%s: live %d > reserved %d", stage, d.LiveBytes(), d.ReservedBytes())
		}
		if d.ReservedBytes() > d.CapacityBytes() {
			t.Fatalf("%s: reserved %d > capacity %d", stage, d.ReservedBytes(), d.CapacityBytes())
		}
	}
	// Admit two, grow both until the pool exhausts.
	if err := d.Admit(1, 60); err != nil { // 30 MiB
		t.Fatal(err)
	}
	if err := d.Admit(2, 60); err != nil { // 30 MiB -> 4 MiB slack
		t.Fatal(err)
	}
	check("admitted")
	grown := map[int]int{1: 60, 2: 60}
	var evicted bool
	for step := 0; step < 16 && !evicted; step++ {
		for id := 1; id <= 2; id++ {
			if err := d.Grow(id, grown[id]+1); err != nil {
				// The engine's move: evict the youngest (2), re-queue.
				if rerr := d.Release(2); rerr != nil {
					t.Fatal(rerr)
				}
				evicted = true
				break
			}
			grown[id]++
			check("grow")
		}
	}
	if !evicted {
		t.Fatal("pool never exhausted; churn scenario mis-sized")
	}
	// Request 1 can now grow freely; re-admit 2 at its grown size once 1
	// completes, as re-admission after preemption does.
	if err := d.Grow(1, grown[1]+4); err != nil {
		t.Fatalf("grow after eviction freed chunks: %v", err)
	}
	check("regrow")
	if err := d.Release(1); err != nil {
		t.Fatal(err)
	}
	if err := d.Admit(2, grown[2]); err != nil {
		t.Fatalf("re-admission at grown size: %v", err)
	}
	check("re-admitted")
	if err := d.Release(2); err != nil {
		t.Fatal(err)
	}
	if err := d.Release(2); err == nil {
		t.Error("double release must fail")
	}
	if d.ReservedBytes() != 0 || d.LiveBytes() != 0 {
		t.Errorf("drained pool not empty: reserved %d live %d", d.ReservedBytes(), d.LiveBytes())
	}
}

// TestPagedAllocatorRoundTrip exercises the GPU paged allocator the way
// the serving engine drives it: admit at live context, grow per token,
// fail at the pool edge, release. Growth at or below the current
// reservation must be a no-op — the batch simulator re-grows within the
// upfront context+window reservation every step.
func TestPagedAllocatorRoundTrip(t *testing.T) {
	a, err := NewPaged(1000, 10)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "paged" {
		t.Errorf("name %q", a.Name())
	}
	if err := a.Admit(1, 50); err != nil {
		t.Fatal(err)
	}
	if err := a.Admit(1, 10); err == nil {
		t.Error("double admit should fail")
	}
	if a.LiveBytes() != 500 || a.ReservedBytes() != 500 || a.CapacityBytes() != 1000 {
		t.Fatalf("reserved %d live %d cap %d", a.ReservedBytes(), a.LiveBytes(), a.CapacityBytes())
	}
	if !a.CanAdmit(50) || a.CanAdmit(51) {
		t.Error("CanAdmit boundary wrong")
	}
	if err := a.Admit(2, 51); err == nil {
		t.Error("admit past the pool should fail")
	}
	if err := a.Grow(1, 100); err != nil {
		t.Fatal(err)
	}
	if err := a.Grow(1, 101); err == nil {
		t.Error("growth past the pool should fail")
	}
	if err := a.Grow(1, 40); err != nil {
		t.Errorf("growth within the reservation must be a no-op: %v", err)
	}
	if a.ReservedBytes() != 1000 {
		t.Errorf("no-op growth changed the reservation to %d", a.ReservedBytes())
	}
	if err := a.Release(1); err != nil {
		t.Fatal(err)
	}
	if a.ReservedBytes() != 0 {
		t.Errorf("reserved %d after release", a.ReservedBytes())
	}
	if err := a.Grow(1, 10); err == nil {
		t.Error("grow after release should fail")
	}
	if err := a.Release(1); err == nil {
		t.Error("double release should fail")
	}
	if _, err := NewPaged(0, 10); err == nil {
		t.Error("zero capacity should fail")
	}
}

// TestGrowBudgetStatic: static growth never allocates, so the lockstep
// budget is the tightest headroom to T_max across the batch.
func TestGrowBudgetStatic(t *testing.T) {
	s, err := NewStatic(1<<30, 1<<10, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Admit(1, 100); err != nil {
		t.Fatal(err)
	}
	if err := s.Admit(2, 990); err != nil {
		t.Fatal(err)
	}
	if got := s.GrowBudget([]int{1}); got != 900 {
		t.Errorf("budget %d, want 900 (T_max headroom)", got)
	}
	if got := s.GrowBudget([]int{1, 2}); got != 10 {
		t.Errorf("batch budget %d, want the tightest request's 10", got)
	}
	if got := s.GrowBudget([]int{1, 99}); got != 0 {
		t.Errorf("unknown request budgeted %d, want 0", got)
	}
	if got := s.GrowBudget(nil); got != 0 {
		t.Errorf("empty batch budgeted %d, want 0", got)
	}
	// Growing through the budget must succeed without error.
	for k := 1; k <= 10; k++ {
		if err := s.Grow(2, 990+k); err != nil {
			t.Fatalf("in-budget grow to %d failed: %v", 990+k, err)
		}
	}
	if got := s.GrowBudget([]int{2}); got != 0 {
		t.Errorf("budget at T_max is %d, want 0", got)
	}
}

// TestGrowBudgetDPA: the budget is the largest lockstep growth whose
// chunk demand fits the free list — growth through it must succeed at
// every step, growth past it must be able to fail.
func TestGrowBudgetDPA(t *testing.T) {
	// 1 KiB/token, 4 KiB chunks -> 4 tokens per chunk, 2-chunk pool.
	d, err := NewDPA(8<<10, 1<<10, 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Admit(1, 4); err != nil { // 1 chunk mapped, 1 chunk free
		t.Fatal(err)
	}
	// One free chunk holds 4 more tokens.
	if got := d.GrowBudget([]int{1}); got != 4 {
		t.Errorf("budget %d, want 4 (one free chunk)", got)
	}
	for k := 1; k <= 4; k++ {
		if err := d.Grow(1, 4+k); err != nil {
			t.Fatalf("in-budget grow to %d failed: %v", 4+k, err)
		}
	}
	if got := d.GrowBudget([]int{1}); got != 0 {
		t.Errorf("budget of an exhausted pool is %d, want 0", got)
	}
	if err := d.Grow(1, 9); err == nil {
		t.Error("growth past the budget should exhaust the pool")
	}
	if got := d.GrowBudget([]int{1, 3}); got != 0 {
		t.Errorf("unknown request budgeted %d, want 0", got)
	}
	if got := d.GrowBudget(nil); got != 0 {
		t.Errorf("empty batch budgeted %d, want 0", got)
	}
	// Two requests sharing the pool split the chunk demand.
	d2, err := NewDPA(16<<10, 1<<10, 4<<10) // 4 chunks
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Admit(1, 4); err != nil {
		t.Fatal(err)
	}
	if err := d2.Admit(2, 4); err != nil {
		t.Fatal(err)
	}
	// 2 free chunks, both requests at a chunk edge: each can take one
	// chunk's worth of lockstep growth.
	if got := d2.GrowBudget([]int{1, 2}); got != 4 {
		t.Errorf("batch budget %d, want 4", got)
	}
}

// TestGrowBudgetPaged: every token reserves pool, so the lockstep budget
// splits the free pool across the growing batch.
func TestGrowBudgetPaged(t *testing.T) {
	p, err := NewPaged(100<<10, 1<<10) // 100-token pool
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Admit(1, 30); err != nil {
		t.Fatal(err)
	}
	if err := p.Admit(2, 30); err != nil {
		t.Fatal(err)
	}
	if got := p.GrowBudget([]int{1, 2}); got != 20 {
		t.Errorf("budget %d, want 20 (40 free tokens over 2 requests)", got)
	}
	// Growing both through the budget must succeed.
	for k := 1; k <= 20; k++ {
		if err := p.Grow(1, 30+k); err != nil {
			t.Fatal(err)
		}
		if err := p.Grow(2, 30+k); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.GrowBudget([]int{1, 2}); got != 0 {
		t.Errorf("budget of a full pool is %d, want 0", got)
	}
	if got := p.GrowBudget([]int{1, 9}); got != 0 {
		t.Errorf("unknown request budgeted %d, want 0", got)
	}
	if got := p.GrowBudget(nil); got != 0 {
		t.Errorf("empty batch budgeted %d, want 0", got)
	}
}
