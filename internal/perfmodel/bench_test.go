package perfmodel

import (
	"testing"

	"pimphony/internal/timing"
)

// BenchmarkPriceCold measures an uncached kernel pricing (builds and
// schedules the full command stack).
func BenchmarkPriceCold(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New(timing.AiM16())
		if _, err := s.Price(Query{Kernel: QKT, Tokens: 16384, Dh: 128, Queries: 1, Sched: DCS}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPriceHot measures the memoized path the cluster simulator hits
// on every decode step.
func BenchmarkPriceHot(b *testing.B) {
	s := New(timing.AiM16())
	q := Query{Kernel: QKT, Tokens: 16384, Dh: 128, Queries: 1, Sched: DCS}
	if _, err := s.Price(q); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Tokens = 16384 + i%64 // decode-step token drift stays in-bucket
		if _, err := s.Price(q); err != nil {
			b.Fatal(err)
		}
	}
}
