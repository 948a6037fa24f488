package backend

import (
	"context"
	"strings"
	"testing"

	"pimphony/internal/energy"
	"pimphony/internal/hub"
	"pimphony/internal/model"
	"pimphony/internal/perfmodel"
	"pimphony/internal/timing"
	"pimphony/internal/workload"
	"pimphony/internal/xpu"
)

// pimEnv builds a CENT-shaped environment with live pricing services.
func pimEnv(m model.Config, tech Technique) *Env {
	dev := timing.AiM16().WithChannels(32).WithCapacity(16 << 30)
	return &Env{
		Name: "test-pim", Dev: dev, Modules: 8, TP: 8, PP: 1,
		Model: m, Tech: tech, RowReuse: m.IsGQA(),
		Perf: perfmodel.New(dev), Hub: hub.New(dev), EMod: energy.Default(),
	}
}

// dimmEnv builds a DIMM-PIM-shaped environment.
func dimmEnv(m model.Config, tech Technique) *Env {
	dev := timing.DDR5DIMM()
	return &Env{
		Name: "test-dimm", Dev: dev, Modules: 8, TP: 8, PP: 1,
		Model: m, Tech: tech, RowReuse: m.IsGQA(),
		Perf: perfmodel.New(dev), Hub: hub.New(dev), EMod: energy.Default(),
	}
}

// gpuEnv builds the A100-baseline environment (no PIM services needed).
func gpuEnv(m model.Config) *Env {
	return &Env{Name: "test-gpu", GPUs: 2, Model: m, EMod: energy.Default()}
}

func smallBatch(n int) []workload.Request {
	return workload.Uniform(8192, 3).Batch(n)
}

func ctxOf(r workload.Request) int { return r.Context }

func TestRegistryNamesAndLookup(t *testing.T) {
	names := Names()
	want := []string{DIMMPIM, GPU, PIMOnly, XPUPIM}
	if len(names) != len(want) {
		t.Fatalf("registry has %v, want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Errorf("Names()[%d] = %q, want %q (sorted)", i, names[i], n)
		}
	}
	for _, n := range names {
		b, err := Lookup(n)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", n, err)
		}
		if b.Name() != n {
			t.Errorf("Lookup(%q).Name() = %q", n, b.Name())
		}
		if b.Describe() == "" {
			t.Errorf("%s has no description", n)
		}
	}
	// The empty name is the historical default organisation.
	if b, err := Lookup(""); err != nil || b.Name() != PIMOnly {
		t.Errorf(`Lookup("") = %v, %v; want pim-only`, b, err)
	}
	if _, err := Lookup("nope"); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("unknown lookup should name the offender: %v", err)
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register should panic")
		}
	}()
	Register(gpu{})
}

func TestPIMAttentionCapability(t *testing.T) {
	for name, want := range map[string]bool{PIMOnly: true, XPUPIM: true, DIMMPIM: true, GPU: false} {
		b, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if b.PIMAttention() != want {
			t.Errorf("%s.PIMAttention() = %v, want %v", name, b.PIMAttention(), want)
		}
	}
}

func TestValidate(t *testing.T) {
	m := model.LLM7B32K()
	pim, _ := Lookup(PIMOnly)
	if err := pim.Validate(pimEnv(m, Baseline())); err != nil {
		t.Errorf("valid pim env rejected: %v", err)
	}
	bad := pimEnv(m, Baseline())
	bad.TP, bad.PP = 3, 1 // 3*1 != 8 modules
	if err := pim.Validate(bad); err == nil {
		t.Error("TP*PP != Modules should fail")
	}
	badTP := pimEnv(m, Baseline())
	badTP.Modules, badTP.TP = 48, 48 // 48 neither divides nor is divided by 32 heads
	if err := pim.Validate(badTP); err == nil {
		t.Error("non-dividing TP should fail")
	}
	badPP := pimEnv(m, Baseline())
	badPP.Modules, badPP.TP, badPP.PP = 3, 1, 3 // 32 layers % 3 != 0
	if err := pim.Validate(badPP); err == nil {
		t.Error("PP not dividing layers should fail")
	}
	g, _ := Lookup(GPU)
	if err := g.Validate(gpuEnv(m)); err != nil {
		t.Errorf("valid gpu env rejected: %v", err)
	}
	noGPUs := gpuEnv(m)
	noGPUs.GPUs = 0
	if err := g.Validate(noGPUs); err == nil {
		t.Error("GPUs=0 should fail")
	}
}

func TestCapacityBytes(t *testing.T) {
	m := model.LLM7B32K()
	env := pimEnv(m, Baseline())
	pim, _ := Lookup(PIMOnly)
	if got, want := pim.CapacityBytes(env), int64(env.Modules)*env.Dev.ModuleBytes(); got != want {
		t.Errorf("pim capacity %d, want %d", got, want)
	}
	g, _ := Lookup(GPU)
	if got, want := g.CapacityBytes(gpuEnv(m)), int64(2)*xpu.A100().MemBytes; got != want {
		t.Errorf("gpu capacity %d, want %d", got, want)
	}
	d, _ := Lookup(DIMMPIM)
	de := dimmEnv(m, Baseline())
	if got, want := d.CapacityBytes(de), int64(8)*timing.DDR5DIMM().ModuleBytes(); got != want {
		t.Errorf("dimm capacity %d, want %d", got, want)
	}
}

func TestAdmissionParameters(t *testing.T) {
	m := model.LLM7B32K()
	pim, _ := Lookup(PIMOnly)
	// Head-first placement bounds admission only without TCP.
	hfp := pim.Admission(pimEnv(m, Baseline()))
	if hfp.HeadBudget <= 0 || hfp.KVHeadsPerModule != m.KVHeads()/8 {
		t.Errorf("HFP admission %+v lacks a head budget", hfp)
	}
	tcp := pim.Admission(pimEnv(m, PIMphony()))
	if tcp.HeadBudget != 0 {
		t.Errorf("TCP admission should not carry a head budget: %+v", tcp)
	}
	if hfp.SkipUnfit || hfp.ReserveHorizon || hfp.WeightsHosted || hfp.PoolScale != 0 {
		t.Errorf("pim admission has GPU-shaped fields: %+v", hfp)
	}
	g, _ := Lookup(GPU)
	ga := g.Admission(gpuEnv(m))
	if !ga.SkipUnfit || !ga.ReserveHorizon || !ga.UnclampedHorizon {
		t.Errorf("gpu admission must pack greedily with upfront reservations: %+v", ga)
	}
	if ga.PoolScale != xpu.A100().PagedAttentionEff || ga.ReportedUtil != xpu.A100().PagedAttentionEff {
		t.Errorf("gpu admission must carry the paged-attention derate: %+v", ga)
	}
	alloc, err := ga.NewAllocator(1<<30, m.KVBytesPerToken(), m.ContextWindow)
	if err != nil || alloc.Name() != "paged" {
		t.Errorf("gpu allocator = %v, %v; want paged", alloc, err)
	}
	d, _ := Lookup(DIMMPIM)
	da := d.Admission(dimmEnv(m, PIMphony()))
	if !da.WeightsHosted {
		t.Error("dimm-pim pool must be all-KV (weights hosted)")
	}
}

// TestTokenShardGeometry covers TP beyond the KV-head count: the token
// axis shards and the head budget scales with the shard factor.
func TestTokenShardGeometry(t *testing.T) {
	m := model.LLM7B128KGQA() // 8 KV heads
	env := pimEnv(m, Baseline())
	env.Modules, env.TP = 16, 16 // TP 16 > 8 KV heads -> token shard 2
	var p pimShared
	kvHeads, shard := p.headGeometry(env)
	if kvHeads != 1 || shard != 2 {
		t.Fatalf("headGeometry = (%d, %d), want (1, 2)", kvHeads, shard)
	}
	adm := p.admission(env)
	if adm.KVHeadsPerModule != 1 {
		t.Errorf("admission kv heads %d, want 1", adm.KVHeadsPerModule)
	}
}

func TestStepDeterministicAndOrdered(t *testing.T) {
	m := model.LLM7B32K()
	batch := smallBatch(6)
	for _, name := range []string{PIMOnly, XPUPIM, DIMMPIM} {
		b, _ := Lookup(name)
		env := pimEnv(m, PIMphony())
		if name == DIMMPIM {
			env = dimmEnv(m, PIMphony())
		}
		c1, err := b.Step(context.Background(), env, batch, ctxOf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c2, err := b.Step(context.Background(), env, batch, ctxOf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c1 != c2 {
			t.Errorf("%s: Step not deterministic: %+v vs %+v", name, c1, c2)
		}
		if c1.Seconds <= 0 || c1.AttnShare <= 0 || c1.AttnShare > 1 {
			t.Errorf("%s: implausible cost %+v", name, c1)
		}
		if c1.Stats.Cycles <= 0 || c1.Stats.Channels != env.Dev.Channels {
			t.Errorf("%s: missing attention stats %+v", name, c1.Stats)
		}
	}
}

// TestOverlapBeatsAdditive: with identical phase times, the NeuPIMs
// combine must be cheaper than the additive one by 85% of the shorter
// phase.
func TestOverlapBeatsAdditive(t *testing.T) {
	if add, over := additive(3, 2, 1), overlapped(3, 2, 1); over >= add {
		t.Errorf("overlap %g should beat additive %g", over, add)
	}
	if got := overlapped(2, 3, 0); got != 3+0.15*2 {
		t.Errorf("overlapped(2,3,0) = %g", got)
	}
}

// TestPPPipelineComposition: with PP stages, one request's iteration is
// its per-stage time times (1 + PP-1) bubbles — cross-checked against
// the PP=1 stage of the same request with layers scaled.
func TestPPPipelineComposition(t *testing.T) {
	m := model.LLM7B32K()
	b, _ := Lookup(PIMOnly)
	one := smallBatch(1)
	ppEnv := pimEnv(m, PIMphony())
	ppEnv.Modules, ppEnv.TP, ppEnv.PP = 8, 1, 8
	cost, err := b.Step(context.Background(), ppEnv, one, ctxOf)
	if err != nil {
		t.Fatal(err)
	}
	var p pimShared
	stage, _, _, err := p.stageTime(ppEnv, one, ctxOf, pnmFC, additive)
	if err != nil {
		t.Fatal(err)
	}
	want := stage + 7*stage
	if diff := cost.Seconds - want; diff > 1e-15 || diff < -1e-15 {
		t.Errorf("PP iteration %g, want stage+7 bubbles = %g", cost.Seconds, want)
	}
	// A multi-request batch folds its per-request stages in request
	// order: the sum plus (PP-1) bubbles of the longest stage.
	four := smallBatch(5)
	costPar, err := b.Step(context.Background(), ppEnv, four, ctxOf)
	if err != nil {
		t.Fatal(err)
	}
	var sum, max float64
	for _, r := range four {
		st, _, _, err := p.stageTime(ppEnv, []workload.Request{r}, ctxOf, pnmFC, additive)
		if err != nil {
			t.Fatal(err)
		}
		sum += st
		if st > max {
			max = st
		}
	}
	if want := sum + 7*max; costPar.Seconds != want {
		t.Errorf("PP batch iteration %g, want %g", costPar.Seconds, want)
	}
}

// TestGPUStepMatchesRoofline: the GPU step is the plain A100 roofline
// sum of batched FC and flash-decoding attention, and its stepper's
// slice entry point prices it bit for bit.
func TestGPUStepMatchesRoofline(t *testing.T) {
	m := model.LLM7B32K()
	env := gpuEnv(m)
	b, _ := Lookup(GPU)
	batch := smallBatch(4)
	cost, err := b.Step(context.Background(), env, batch, ctxOf)
	if err != nil {
		t.Fatal(err)
	}
	g := xpu.A100()
	var kv int64
	for _, r := range batch {
		kv += m.KVBytes(r.Context)
	}
	fc := g.OpTime(4*m.FCFlopsPerToken()/2, m.WeightBytes()/2)
	attn := g.AttentionTime(kv / 2)
	if cost.Seconds != fc+attn {
		t.Errorf("gpu step %g, want %g", cost.Seconds, fc+attn)
	}
	if cost.Stats != (Stats{}) {
		t.Errorf("gpu step should carry no PIM stats: %+v", cost.Stats)
	}
	toks := make([]int, len(batch))
	for i, r := range batch {
		toks[i] = r.Context
	}
	slice, err := b.(Incremental).NewStepper(env).(SliceStepper).StepSlice(context.Background(), batch, toks)
	if err != nil {
		t.Fatal(err)
	}
	if slice != cost {
		t.Errorf("gpu StepSlice %+v, Step %+v", slice, cost)
	}
}

func TestIterEnergyPerBackend(t *testing.T) {
	m := model.LLM7B32K()
	batch := smallBatch(4)
	pim, _ := Lookup(PIMOnly)
	env := pimEnv(m, PIMphony())
	cost, err := pim.Step(context.Background(), env, batch, ctxOf)
	if err != nil {
		t.Fatal(err)
	}
	attn, fc := pim.IterEnergy(env, cost, len(batch))
	if attn.Total() <= 0 || fc.Total() <= 0 {
		t.Errorf("pim energy must be positive: attn %g fc %g", attn.Total(), fc.Total())
	}
	xp, _ := Lookup(XPUPIM)
	if xattn, xfc := xp.IterEnergy(env, cost, len(batch)); xattn.Total() <= 0 || xfc.Total() <= 0 {
		t.Error("xpu+pim energy must be positive")
	}
	d, _ := Lookup(DIMMPIM)
	de := dimmEnv(m, PIMphony())
	dcost, err := d.Step(context.Background(), de, batch, ctxOf)
	if err != nil {
		t.Fatal(err)
	}
	dattn, dfc := d.IterEnergy(de, dcost, len(batch))
	if dattn.Total() <= 0 {
		t.Error("dimm-pim attention energy must be positive")
	}
	if dfc.Total() != 0 {
		t.Errorf("dimm-pim FC energy is host-side, want 0, got %g", dfc.Total())
	}
	g, _ := Lookup(GPU)
	if ga, gf := g.IterEnergy(gpuEnv(m), StepCost{Seconds: 1}, 4); ga.Total() != 0 || gf.Total() != 0 {
		t.Error("gpu energy must be zero (outside the module model)")
	}
}

// TestPrefillOrdering: the 3-TFLOPS PNM is the slowest prefill engine;
// the DIMM-PIM host GPU and the A100 baseline are dense-engine class.
func TestPrefillOrdering(t *testing.T) {
	m := model.LLM7B32K()
	const ctx = 32768
	pim, _ := Lookup(PIMOnly)
	xp, _ := Lookup(XPUPIM)
	g, _ := Lookup(GPU)
	d, _ := Lookup(DIMMPIM)
	pp := pim.PrefillSeconds(pimEnv(m, PIMphony()), ctx)
	xn := xp.PrefillSeconds(pimEnv(m, PIMphony()), ctx)
	gg := g.PrefillSeconds(gpuEnv(m), ctx)
	dd := d.PrefillSeconds(dimmEnv(m, PIMphony()), ctx)
	if !(pp > xn && pp > gg && pp > dd) {
		t.Errorf("PNM prefill %.3fs should be slowest (npu %.3fs, gpu %.3fs, dimm host %.3fs)", pp, xn, gg, dd)
	}
	for _, v := range []float64{pp, xn, gg, dd} {
		if v <= 0 {
			t.Error("prefill times must be positive")
		}
	}
}

// TestDCSAcceleratesPNMFC: the DCS command interval and deeper OBuf must
// not slow the PNM FC path down.
func TestDCSAcceleratesPNMFC(t *testing.T) {
	m := model.LLM72B32K()
	base := pimEnv(m, Baseline())
	base.Modules, base.TP = 32, 32
	dcs := pimEnv(m, Technique{DCS: true})
	dcs.Modules, dcs.TP = 32, 32
	for _, batch := range []int{1, 8, 64} {
		b, d := pnmFC(base, batch), pnmFC(dcs, batch)
		if d > b {
			t.Errorf("batch %d: DCS FC %g slower than static %g", batch, d, b)
		}
	}
}

// TestAllocatorFallbackSelection: a nil Admission.NewAllocator means the
// cluster picks static vs DPA from the technique — make sure the PIM
// backends leave it nil so that contract holds.
func TestAllocatorFallbackSelection(t *testing.T) {
	m := model.LLM7B32K()
	for _, name := range []string{PIMOnly, XPUPIM, DIMMPIM} {
		b, _ := Lookup(name)
		env := pimEnv(m, PIMphony())
		if name == DIMMPIM {
			env = dimmEnv(m, PIMphony())
		}
		if adm := b.Admission(env); adm.NewAllocator != nil {
			t.Errorf("%s overrides the technique-selected allocator", name)
		}
	}
}

// centGQA72Env is the CENT preset's LLM-72B-128K-GQA geometry: 32
// modules split TP=8 x PP=4 with the row-reuse KV mapping — the one
// pipelined system the experiments price.
func centGQA72Env(tech Technique) *Env {
	env := pimEnv(model.LLM72B128KGQA(), tech)
	env.Modules, env.TP, env.PP = 32, 8, 4
	return env
}

// TestStepperMatchesStep pins the stepper's contract: for every
// PIM-attention backend, technique mix and geometry, the memoized
// pricer must return the exact StepCost the naive mapping.Assign oracle
// (oracle_test.go) computes — bit for bit — across growing token counts
// (perfmodel quantization-bucket crossings included), changing batch
// compositions and single-request batches, through both the TokensOf
// and the batch-order slice entry points.
func TestStepperMatchesStep(t *testing.T) {
	m := model.LLM7B32K()
	gqa := model.LLM7B128KGQA()
	shardEnv := pimEnv(gqa, PIMphony())
	shardEnv.TP = 2 * gqa.KVHeads() // token-axis sharding past the head count
	shardEnv.Modules = shardEnv.TP
	ppEnv := pimEnv(m, PIMphony())
	ppEnv.TP, ppEnv.PP = 4, 2 // request-granular pipeline fold
	cases := []struct {
		name string
		be   Backend
		env  *Env
	}{
		{"pim-baseline", pimOnly{}, pimEnv(m, Baseline())},
		{"pim-pimphony", pimOnly{}, pimEnv(m, PIMphony())},
		{"pim-tcp-only", pimOnly{}, pimEnv(m, Technique{TCP: true})},
		{"pim-dcs-only", pimOnly{}, pimEnv(m, Technique{DCS: true})},
		{"pim-gqa-rowreuse", pimOnly{}, pimEnv(gqa, PIMphony())},
		{"pim-gqa-hfp", pimOnly{}, pimEnv(gqa, Baseline())},
		{"pim-token-sharded", pimOnly{}, shardEnv},
		{"pim-pipelined", pimOnly{}, ppEnv},
		{"cent-72b-gqa-hfp", pimOnly{}, centGQA72Env(Baseline())},
		{"cent-72b-gqa-tcp", pimOnly{}, centGQA72Env(PIMphony())},
		{"xpu-pimphony", xpuPIM{}, pimEnv(m, PIMphony())},
		{"xpu-baseline", xpuPIM{}, pimEnv(m, Baseline())},
		{"dimm-pimphony", dimmPIM{}, dimmEnv(m, PIMphony())},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.be.Validate(c.env); err != nil {
				t.Fatalf("config invalid: %v", err)
			}
			st := c.be.(Incremental).NewStepper(c.env)
			ctx := context.Background()
			check := func(step int, batch []workload.Request, tokensOf TokensOf) {
				t.Helper()
				want, err := naiveStep(ctx, c.be, c.env, batch, tokensOf)
				if err != nil {
					t.Fatal(err)
				}
				got, err := st.Step(ctx, batch, tokensOf)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("step %d (batch %d) diverged:\nstepper %+v\nnaive   %+v", step, len(batch), got, want)
				}
				toks := make([]int, len(batch))
				for i, r := range batch {
					toks[i] = tokensOf(r)
				}
				if got, err := st.(SliceStepper).StepSlice(ctx, batch, toks); err != nil || got != want {
					t.Fatalf("step %d (batch %d) StepSlice diverged (%v):\nstepper %+v\nnaive   %+v", step, len(batch), err, got, want)
				}
			}
			batch := smallBatch(5)
			// A tiny context exercises the sub-channel (zero-token slice)
			// edge; a huge one the quantization cap.
			batch[0].Context = 10
			batch[1].Context = 70000
			for step := 0; step < 48; step++ {
				if step == 20 {
					batch = batch[:3] // completion shrinks the batch
				}
				if step == 30 {
					batch = append(batch, smallBatch(7)[6]) // admission
				}
				grown := step
				tokensOf := func(r workload.Request) int { return r.Context + grown }
				check(step, batch, tokensOf)
				if step%8 == 0 {
					for i := range batch {
						check(step, batch[i:i+1], tokensOf)
					}
				}
			}
		})
	}
}

// TestPipelinedStepperMemoizes: a PP>1 stepper prices its per-request
// micro-batches through the same shape memo as PP=1, so repeating an
// iteration over the same token counts must not consult the perfmodel
// service at all.
func TestPipelinedStepperMemoizes(t *testing.T) {
	for _, tech := range []Technique{Baseline(), PIMphony()} {
		env := centGQA72Env(tech)
		st := pimOnly{}.NewStepper(env)
		batch := smallBatch(6)
		first, err := st.Step(context.Background(), batch, ctxOf)
		if err != nil {
			t.Fatal(err)
		}
		before := env.Perf.CacheLookups()
		again, err := st.Step(context.Background(), batch, ctxOf)
		if err != nil {
			t.Fatal(err)
		}
		if n := env.Perf.CacheLookups() - before; n != 0 {
			t.Errorf("%+v: repeated PP=%d step made %d perfmodel lookups, want 0", tech, env.PP, n)
		}
		if again != first {
			t.Errorf("%+v: repeated step priced %+v, first %+v", tech, again, first)
		}
	}
}

func TestCostPerHourAllBackends(t *testing.T) {
	m := model.LLM7B32K()
	envs := map[string]*Env{
		PIMOnly: pimEnv(m, PIMphony()),
		XPUPIM:  pimEnv(m, PIMphony()),
		DIMMPIM: dimmEnv(m, PIMphony()),
		GPU:     gpuEnv(m),
	}
	for name, env := range envs {
		b, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%s): %v", name, err)
		}
		if c := b.CostPerHour(env); c <= 0 {
			t.Errorf("%s: CostPerHour = %g, want positive", name, c)
		}
	}
	// Cost ordering the docs promise: the commodity PIM stack undercuts
	// the GPU pair, and hybrids pay their host/NPU premium over pure PIM.
	pim, _ := Lookup(PIMOnly)
	gpuB, _ := Lookup(GPU)
	xpu, _ := Lookup(XPUPIM)
	if pim.CostPerHour(envs[PIMOnly]) >= gpuB.CostPerHour(envs[GPU]) {
		t.Errorf("PIM stack $%g/h not below GPU $%g/h", pim.CostPerHour(envs[PIMOnly]), gpuB.CostPerHour(envs[GPU]))
	}
	if xpu.CostPerHour(envs[XPUPIM]) <= pim.CostPerHour(envs[PIMOnly]) {
		t.Errorf("xPU+PIM $%g/h not above PIM-only $%g/h", xpu.CostPerHour(envs[XPUPIM]), pim.CostPerHour(envs[PIMOnly]))
	}
}
