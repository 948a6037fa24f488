package backend

import (
	"context"

	"pimphony/internal/energy"
	"pimphony/internal/workload"
	"pimphony/internal/xpu"
)

// npuMemGBsPerModule is the weight-read bandwidth available to the NeuPIMs
// NPU per module. The NPU accesses DRAM through the regular channel
// interface (not the bank-internal MAC path), so it sees GDDR6-class
// external bandwidth rather than the 32 TB/s internal figure.
const npuMemGBsPerModule = 1000

// xpuPIM is a NeuPIMs-style system: FC on an NPU, attention on PIM, the
// two phases overlapped by sub-batch interleaving.
type xpuPIM struct{ pimShared }

func init() { Register(xpuPIM{}) }

func (xpuPIM) Name() string { return XPUPIM }

func (xpuPIM) Describe() string {
	return "NeuPIMs-style xPU+PIM: batched GEMM on an NPU overlapped with PIM attention"
}

func (xpuPIM) PIMAttention() bool { return true }

func (x xpuPIM) Validate(env *Env) error { return x.validatePIM(env) }

func (x xpuPIM) CapacityBytes(env *Env) int64 { return x.moduleCapacity(env) }

func (x xpuPIM) Admission(env *Env) Admission { return x.admission(env) }

// npuFC prices one layer's FC as a batched GEMM on the NPU roofline.
func npuFC(env *Env, batch int) float64 {
	shardFlops, shardBytes := fcShard(env)
	return xpu.NeuPIMsNPU(npuMemGBsPerModule).OpTime(int64(batch)*shardFlops, shardBytes)
}

func (x xpuPIM) Step(ctx context.Context, env *Env, batch []workload.Request, tokensOf TokensOf) (StepCost, error) {
	return x.NewStepper(env).Step(ctx, batch, tokensOf)
}

func (x xpuPIM) IterEnergy(env *Env, cost StepCost, batch int) (attn, fc energy.Breakdown) {
	return x.iterEnergy(env, cost, batch)
}

// PrefillSeconds runs the prompt on the NPU (the phase split NeuPIMs and
// Hybe argue for).
func (xpuPIM) PrefillSeconds(env *Env, context int) float64 {
	dev := xpu.NeuPIMsNPU(npuMemGBsPerModule)
	flops := prefillFlops(env.Model, context)
	return dev.OpTime(flops/int64(env.Modules), env.Model.WeightBytes()/int64(env.Modules))
}

// npuDollarsPerHour amortises the NPU die the hybrid adds on top of its
// PIM modules.
const npuDollarsPerHour = 1.20

// CostPerHour charges the PIM module stack plus the NPU.
func (xpuPIM) CostPerHour(env *Env) float64 {
	return npuDollarsPerHour + pimModuleDollarsPerHour*float64(env.Modules)
}
