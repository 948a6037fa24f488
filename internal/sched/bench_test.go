package sched

import (
	"testing"

	"pimphony/internal/kernels"
	"pimphony/internal/pim"
	"pimphony/internal/timing"
)

// benchProgram builds a realistic attention program once: a 64K-token
// QK^T slice (~37K commands when expanded).
func benchProgram(b *testing.B) *pim.Program {
	b.Helper()
	d := timing.AiM16()
	cfg := kernels.NewConfig(d, kernels.OBufBuffers(d))
	p := new(pim.Program)
	if err := cfg.QKT(p, 65536, 128, 1, false); err != nil {
		b.Fatal(err)
	}
	return p
}

// benchScheduler reports cmds/op, the commands the engine issued one by
// one per scheduling (the rest were skipped as whole periods).
func benchScheduler(b *testing.B, s Scheduler, p *pim.Program) {
	b.ReportAllocs()
	b.ResetTimer()
	var scheduled int
	for i := 0; i < b.N; i++ {
		res, err := s.Schedule(p)
		if err != nil {
			b.Fatal(err)
		}
		scheduled = res.Scheduled
	}
	b.ReportMetric(float64(scheduled), "cmds/op")
}

// BenchmarkStaticScheduler measures the static controller's simulation
// throughput on a 64K-token QK^T program.
func BenchmarkStaticScheduler(b *testing.B) {
	benchScheduler(b, &Static{Dev: timing.AiM16()}, benchProgram(b))
}

// BenchmarkDCSScheduler measures the DCS engine (D-Table pass + dual-queue
// issue loop + period skip) on the same program.
func BenchmarkDCSScheduler(b *testing.B) {
	benchScheduler(b, &DCS{Dev: timing.AiM16()}, benchProgram(b))
}

// BenchmarkDCSSchedulerFlat schedules the same program expanded flat:
// every command issued one by one, the cost the period skip removes.
func BenchmarkDCSSchedulerFlat(b *testing.B) {
	benchScheduler(b, &DCS{Dev: timing.AiM16()}, benchProgram(b).Expand().Program())
}

// BenchmarkPingPongScheduler measures the region-granular engine.
func BenchmarkPingPongScheduler(b *testing.B) {
	benchScheduler(b, &PingPong{Dev: timing.AiM16()}, benchProgram(b))
}
