package perfmodel

import (
	"testing"

	"pimphony/internal/timing"
)

// BenchmarkPriceCold measures an uncached kernel pricing (builds the
// periodic command program and schedules it) and reports cmds/op, the
// commands the scheduling engine issued one by one.
func BenchmarkPriceCold(b *testing.B) {
	for _, c := range []struct {
		name string
		q    Query
	}{
		{"dcs-qkt-16k-q1", Query{Kernel: QKT, Tokens: 16384, Dh: 128, Queries: 1, Sched: DCS}},
		// The 64K-token GQA score miss, the largest single cold pricing
		// the serving experiments pay.
		{"dcs-qkt-64k-q4", Query{Kernel: QKT, Tokens: 65536, Dh: 128, Queries: 4, Sched: DCS}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var cmds int64
			for i := 0; i < b.N; i++ {
				s := New(timing.AiM16())
				if _, err := s.Price(c.q); err != nil {
					b.Fatal(err)
				}
				cmds = s.CommandsScheduled()
			}
			b.ReportMetric(float64(cmds), "cmds/op")
		})
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
