package backend

import (
	"context"
	"fmt"

	"pimphony/internal/energy"
	"pimphony/internal/memory"
	"pimphony/internal/workload"
	"pimphony/internal/xpu"
)

// gpu is the A100 flash-decoding + paged-attention baseline of Fig. 20.
// It prices the whole iteration on the GPU rooflines (batched-GEMM FC
// plus KV-streaming attention) and admits against a paged pool: the
// post-weights capacity derated by the paged-attention efficiency,
// packed greedily with upfront per-request reservations — the exact
// semantics of the pre-refactor dedicated GPU path, now expressed
// through the same admitter and step loop as every other backend (which
// is what gives the GPU baseline serving-engine support).
type gpu struct{}

func init() { Register(gpu{}) }

func (gpu) Name() string { return GPU }

func (gpu) Describe() string {
	return "A100 GPU baseline with flash-decoding and paged-attention"
}

func (gpu) PIMAttention() bool { return false }

func (gpu) Validate(env *Env) error {
	if env.GPUs <= 0 {
		return fmt.Errorf("cluster %s: GPU system needs GPUs > 0", env.Name)
	}
	return nil
}

func (gpu) CapacityBytes(env *Env) int64 {
	return int64(env.GPUs) * xpu.A100().MemBytes
}

func (gpu) Admission(env *Env) Admission {
	g := xpu.A100()
	return Admission{
		PoolScale:        g.PagedAttentionEff,
		SkipUnfit:        true,
		ReserveHorizon:   true,
		UnclampedHorizon: true,
		ReportedUtil:     g.PagedAttentionEff,
		NewAllocator: func(pool, bytesPerToken int64, _ int) (memory.Allocator, error) {
			return memory.NewPaged(pool, bytesPerToken)
		},
	}
}

func (g gpu) Step(ctx context.Context, env *Env, batch []workload.Request, tokensOf TokensOf) (StepCost, error) {
	return g.NewStepper(env).Step(ctx, batch, tokensOf)
}

// NewStepper implements Incremental.
func (gpu) NewStepper(env *Env) Stepper { return &gpuStepper{env: env} }

// gpuStepper prices decode iterations on the A100 rooflines: batched-GEMM
// FC plus flash-decoding attention over the batch's KV bytes. The
// roofline is closed form, so there is nothing to memoize.
type gpuStepper struct{ env *Env }

// Step implements Stepper.
func (s *gpuStepper) Step(ctx context.Context, batch []workload.Request, tokensOf TokensOf) (StepCost, error) {
	return s.StepSlice(ctx, batch, batchTokens(batch, tokensOf))
}

// StepSlice implements SliceStepper.
func (s *gpuStepper) StepSlice(_ context.Context, _ []workload.Request, toks []int) (StepCost, error) {
	g := xpu.A100()
	m, gpus := s.env.Model, int64(s.env.GPUs)
	var kv int64
	for _, t := range toks {
		kv += m.KVBytes(t)
	}
	fc := g.OpTime(int64(len(toks))*m.FCFlopsPerToken()/gpus, m.WeightBytes()/gpus)
	attn := g.AttentionTime(kv / gpus)
	return StepCost{Seconds: fc + attn, AttnShare: attn / (fc + attn)}, nil
}

// IterEnergy is zero: the module energy model covers PIM systems only.
func (gpu) IterEnergy(*Env, StepCost, int) (attn, fc energy.Breakdown) {
	return energy.Breakdown{}, energy.Breakdown{}
}

func (gpu) PrefillSeconds(env *Env, context int) float64 {
	g := xpu.A100()
	flops := prefillFlops(env.Model, context)
	return g.OpTime(flops/int64(env.GPUs), env.Model.WeightBytes()/int64(env.GPUs))
}

// gpuDollarsPerHour amortises one A100-class device (cloud on-demand
// scale). The GPU prices no module energy (IterEnergy is zero), so its
// serving cost is provisioning-only.
const gpuDollarsPerHour = 2.10

// CostPerHour charges the device count.
func (gpu) CostPerHour(env *Env) float64 {
	return gpuDollarsPerHour * float64(env.GPUs)
}
