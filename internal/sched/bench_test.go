package sched

import (
	"testing"

	"pimphony/internal/kernels"
	"pimphony/internal/pim"
	"pimphony/internal/timing"
)

// benchStack builds a realistic attention stack (~37K commands) once.
func benchStack(b *testing.B) *pim.Stack {
	b.Helper()
	d := timing.AiM16()
	cfg := kernels.NewConfig(d, kernels.OBufBuffers(d))
	s := new(pim.Stack)
	if err := cfg.QKT(s, 65536, 128, 1, false); err != nil {
		b.Fatal(err)
	}
	return s
}

func benchScheduler(b *testing.B, s Scheduler) {
	stack := benchStack(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Schedule(stack)
		if err != nil {
			b.Fatal(err)
		}
		_ = res.Total
	}
	b.ReportMetric(float64(stack.Len()), "cmds/op")
}

// BenchmarkStaticScheduler measures the static controller's simulation
// throughput on a 64K-token QK^T stack.
func BenchmarkStaticScheduler(b *testing.B) { benchScheduler(b, &Static{Dev: timing.AiM16()}) }

// BenchmarkDCSScheduler measures the DCS engine (D-Table pass + dual-queue
// issue loop) on the same stack.
func BenchmarkDCSScheduler(b *testing.B) { benchScheduler(b, &DCS{Dev: timing.AiM16()}) }

// BenchmarkPingPongScheduler measures the region-granular engine.
func BenchmarkPingPongScheduler(b *testing.B) { benchScheduler(b, &PingPong{Dev: timing.AiM16()}) }
