package perfmodel

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"pimphony/internal/timing"
)

func TestQuantizeBounds(t *testing.T) {
	f := func(raw uint32) bool {
		n := int(raw%2_000_000) + 1
		q := quantize(n)
		if q < n {
			return false // never rounds down
		}
		return float64(q-n)/float64(n) <= 1.0/16 // bounded relative error
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	// Small values are exact.
	for n := 1; n <= 64; n++ {
		if quantize(n) != n {
			t.Fatalf("quantize(%d) = %d, want exact", n, quantize(n))
		}
	}
}

func TestCacheHitsAcrossNearbyTokens(t *testing.T) {
	s := New(timing.AiM16())
	base := Query{Kernel: QKT, Tokens: 100000, Dh: 128, Queries: 1, Sched: DCS}
	if _, err := s.Price(base); err != nil {
		t.Fatal(err)
	}
	misses := s.CacheMisses()
	// 100 consecutive decode steps should not trigger new simulations more
	// than a couple of times (bucket boundaries).
	for i := 1; i <= 100; i++ {
		q := base
		q.Tokens += i
		if _, err := s.Price(q); err != nil {
			t.Fatal(err)
		}
	}
	if extra := s.CacheMisses() - misses; extra > 2 {
		t.Errorf("100 decode steps caused %d cold simulations, want <= 2", extra)
	}
}

func TestScalingIsApproximatelyLinear(t *testing.T) {
	s := New(timing.AiM16())
	l1, err := s.Price(Query{Kernel: SV, Tokens: 4096, Dh: 128, Queries: 1, Sched: DCS})
	if err != nil {
		t.Fatal(err)
	}
	l2, err := s.Price(Query{Kernel: SV, Tokens: 8192, Dh: 128, Queries: 1, Sched: DCS})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(l2.Cycles) / float64(l1.Cycles)
	if math.Abs(ratio-2) > 0.2 {
		t.Errorf("doubling tokens changed latency by %.2fx, want ~2x", ratio)
	}
}

func TestSchedulerOrderingHolds(t *testing.T) {
	s := New(timing.AiM16())
	q := Query{Kernel: QKT, Tokens: 8192, Dh: 128, Queries: 4, RowReuse: true}
	var totals [3]timing.Cycles
	for i, sc := range []Sched{Static, PingPong, DCS} {
		q.Sched = sc
		l, err := s.Price(q)
		if err != nil {
			t.Fatal(err)
		}
		totals[i] = l.Cycles
	}
	if !(totals[2] <= totals[1] && totals[1] <= totals[0]) {
		t.Errorf("want dcs <= pingpong <= static, got %v", totals)
	}
}

func TestBreakdownConsistency(t *testing.T) {
	s := New(timing.AiM16())
	l, err := s.Price(Query{Kernel: QKT, Tokens: 5000, Dh: 128, Queries: 2, Sched: DCS})
	if err != nil {
		t.Fatal(err)
	}
	// After scaling, the breakdown must still sum to within rounding of the
	// total (each component is rounded independently).
	diff := int64(l.Breakdown.Total() - l.Cycles)
	if diff < -8 || diff > 8 {
		t.Errorf("scaled breakdown off by %d cycles", diff)
	}
	if l.MACs <= 0 || l.IOBytes <= 0 {
		t.Error("counts must be positive")
	}
}

func TestAttentionLatencyCombines(t *testing.T) {
	s := New(timing.AiM16())
	att, err := s.AttentionLatency(4096, 128, 1, false, false, DCS)
	if err != nil {
		t.Fatal(err)
	}
	qkt, _ := s.Price(Query{Kernel: QKT, Tokens: 4096, Dh: 128, Queries: 1, Sched: DCS})
	sv, _ := s.Price(Query{Kernel: SV, Tokens: 4096, Dh: 128, Queries: 1, Sched: DCS})
	if att.Cycles != qkt.Cycles+sv.Cycles {
		t.Errorf("attention = %d, want %d + %d", att.Cycles, qkt.Cycles, sv.Cycles)
	}
	if att.MACUtil <= 0 || att.MACUtil > 1 {
		t.Errorf("combined MAC util %f out of range", att.MACUtil)
	}
}

func TestInvalidQueries(t *testing.T) {
	s := New(timing.AiM16())
	if _, err := s.Price(Query{Kernel: QKT, Tokens: 0, Dh: 128}); err == nil {
		t.Error("zero tokens should fail")
	}
	if _, err := s.Price(Query{Kernel: Kernel(99), Tokens: 16, Dh: 16}); err == nil {
		t.Error("unknown kernel should fail")
	}
	if _, err := s.Price(Query{Kernel: QKT, Tokens: 16, Dh: 16, Sched: Sched(99)}); err == nil {
		t.Error("unknown scheduler should fail")
	}
}

func TestGEMVPath(t *testing.T) {
	s := New(timing.AiM16())
	l, err := s.Price(Query{Kernel: GEMV, Tokens: 4096, Dh: 4096, Sched: Static})
	if err != nil {
		t.Fatal(err)
	}
	if l.Cycles <= 0 {
		t.Fatal("GEMV latency must be positive")
	}
	// GEMV queries are not quantized: same query = exact cache hit.
	m := s.CacheMisses()
	if _, err := s.Price(Query{Kernel: GEMV, Tokens: 4096, Dh: 4096, Sched: Static}); err != nil {
		t.Fatal(err)
	}
	if s.CacheMisses() != m {
		t.Error("identical GEMV query should hit the cache")
	}
}

func TestKindStrings(t *testing.T) {
	if QKT.String() != "qkt" || SV.String() != "sv" || GEMV.String() != "gemv" {
		t.Error("kernel names changed")
	}
	if Static.String() != "static" || DCS.String() != "dcs" {
		t.Error("sched names changed")
	}
}

func TestBucketMatchesPriceQuantization(t *testing.T) {
	s := New(timing.AiM16())
	// Walking a token count through its bucket must not trigger new
	// simulations; crossing BucketEnd must move to a new bucket.
	for _, start := range []int{65, 100, 1000, 4096, 100000} {
		end := BucketEnd(start)
		if end < start {
			t.Fatalf("BucketEnd(%d) = %d below the count itself", start, end)
		}
		if end == math.MaxInt {
			continue // the unbounded final bucket at the simulation cap
		}
		if Bucket(end) != Bucket(start) {
			t.Fatalf("BucketEnd(%d) = %d left the bucket", start, end)
		}
		if Bucket(end+1) == Bucket(start) {
			t.Fatalf("bucket did not change past BucketEnd(%d) = %d", start, end)
		}
		if _, err := s.Price(Query{Kernel: QKT, Tokens: start, Dh: 128, Queries: 1, Sched: DCS}); err != nil {
			t.Fatal(err)
		}
		misses := s.CacheMisses()
		for tok := start; tok <= end && tok < start+256; tok++ {
			if _, err := s.Price(Query{Kernel: QKT, Tokens: tok, Dh: 128, Queries: 1, Sched: DCS}); err != nil {
				t.Fatal(err)
			}
		}
		if s.CacheMisses() != misses {
			t.Errorf("pricing within bucket [%d, %d] caused %d cold simulations",
				start, end, s.CacheMisses()-misses)
		}
	}
	// Small counts are their own buckets (quantization is exact there).
	for n := 1; n <= 64; n++ {
		if Bucket(n) != n || BucketEnd(n) != n {
			t.Fatalf("Bucket(%d) = %d end %d, want exact", n, Bucket(n), BucketEnd(n))
		}
	}
}

func TestCacheLookupsCounted(t *testing.T) {
	s := New(timing.AiM16())
	if s.CacheLookups() != 0 {
		t.Fatal("fresh service should have zero lookups")
	}
	q := Query{Kernel: SV, Tokens: 2048, Dh: 128, Queries: 1, Sched: DCS}
	for i := 0; i < 3; i++ {
		if _, err := s.Price(q); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.CacheLookups(); got != 3 {
		t.Errorf("3 Price calls counted %d lookups", got)
	}
	if s.CacheMisses() != 1 {
		t.Errorf("repeat pricing missed %d times, want 1", s.CacheMisses())
	}
}

// pricingSet is a fixed mix of cold shapes: QK^T, SV and GEMV under both
// buffer geometries and every controller, all in distinct cache keys.
func pricingSet() []Query {
	var qs []Query
	for _, k := range []Kernel{QKT, SV, GEMV} {
		for _, base := range []bool{true, false} {
			for sc := Static; sc <= DCSNoIsMAC; sc++ {
				for i, tokens := range []int{1024, 3000} {
					qs = append(qs, Query{Kernel: k, Tokens: tokens, Dh: 128, Queries: 1 + 3*i,
						RowReuse: i == 1, Baseline: base, Sched: sc})
				}
			}
		}
	}
	return qs
}

// TestConcurrentPricingMatchesSerial: cold simulations on parallel
// workers each take their own pooled scratch, so eight goroutines pricing
// the same shapes against one fresh Service agree with a serial pricing,
// and every distinct shape is simulated into the cache exactly once.
func TestConcurrentPricingMatchesSerial(t *testing.T) {
	qs := pricingSet()
	serial := New(timing.AiM16())
	want := make([]Latency, len(qs))
	for i, q := range qs {
		l, err := serial.Price(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = l
	}

	s := New(timing.AiM16())
	const workers = 8
	got := make([][]Latency, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		got[w] = make([]Latency, len(qs))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range qs {
				i := (j + w*len(qs)/workers) % len(qs) // workers start apart and collide
				l, err := s.Price(qs[i])
				if err != nil {
					errs[w] = err
					return
				}
				got[w][i] = l
			}
		}()
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		for i := range qs {
			if got[w][i] != want[i] {
				t.Errorf("worker %d, %+v: got %+v, serial %+v", w, qs[i], got[w][i], want[i])
			}
		}
	}
	if s.CacheMisses() != len(qs) {
		t.Errorf("CacheMisses = %d, want %d distinct shapes", s.CacheMisses(), len(qs))
	}
}

// TestColdPricingAllocations pins the allocation-free miss path: once the
// pooled program, builder and scheduler scratch are warm, a cold 64K-token
// SV pricing on a fresh Service allocates a fixed handful of objects (the
// Service and its cache, the validator's state, the sched.Result), not a
// number that grows with the program's ~38K expanded commands.
func TestColdPricingAllocations(t *testing.T) {
	q := Query{Kernel: SV, Tokens: 65536, Dh: 128, Queries: 1, Sched: DCS}
	var err error
	allocs := testing.AllocsPerRun(5, func() {
		if _, e := New(timing.AiM16()).Price(q); e != nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs >= 100 {
		t.Errorf("cold 64K-token SV pricing averaged %.0f allocations, want < 100", allocs)
	}
	t.Logf("cold 64K-token SV pricing: %.0f allocations", allocs)
}

// TestCommandsScheduledPinned pins the cycle-level simulation's exact
// work for pricingSet: the commands the scheduling engine issues one by
// one across its cold misses. Cache hits add nothing. The count is
// machine-independent, so any change to the builders' period folding or
// the scheduler's period skip shows here first.
func TestCommandsScheduledPinned(t *testing.T) {
	const want = 62742 // of the 168,800 commands the programs expand to
	s := New(timing.AiM16())
	for _, q := range pricingSet() {
		if _, err := s.Price(q); err != nil {
			t.Fatal(err)
		}
	}
	got := s.CommandsScheduled()
	for _, q := range pricingSet() {
		if _, err := s.Price(q); err != nil {
			t.Fatal(err)
		}
	}
	if again := s.CommandsScheduled(); again != got {
		t.Errorf("cache hits scheduled %d more commands", again-got)
	}
	if got != want {
		t.Errorf("CommandsScheduled = %d for pricingSet, pinned %d", got, want)
	}
}
