package compiler

import (
	"testing"

	"pimphony/internal/ir"
	"pimphony/internal/isa"
	"pimphony/internal/kernels"
	"pimphony/internal/model"
	"pimphony/internal/pim"
	"pimphony/internal/timing"
)

func target() Target { return Target{Dev: timing.AiM16(), TCP: true} }

func detect(t *testing.T, cfg model.Config) []Kernel {
	t.Helper()
	layer, err := ir.BuildDecoderLayer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ks, err := DetectKernels(layer)
	if err != nil {
		t.Fatal(err)
	}
	return ks
}

func TestDetectKernels(t *testing.T) {
	ks := detect(t, model.LLM7B32K())
	byClass := map[Class]int{}
	labels := map[string]Class{}
	for _, k := range ks {
		byClass[k.Class]++
		labels[k.Label] = k.Class
	}
	if byClass[QKT] != 1 || byClass[SV] != 1 {
		t.Errorf("attention kernel counts = %v, want 1 QKT + 1 SV", byClass)
	}
	if byClass[FC] != 7 {
		t.Errorf("FC kernel count = %d, want 7 projections", byClass[FC])
	}
	if labels["qk_t"] != QKT || labels["sv"] != SV || labels["ffn_down"] != FC {
		t.Errorf("kernel labels misclassified: %v", labels)
	}
	for _, k := range ks {
		if (k.Class == QKT || k.Class == SV) && !k.TokenDependent {
			t.Errorf("%s should be token dependent", k.Label)
		}
		if (k.Class == QKT || k.Class == SV) && k.HeadDim != 128 {
			t.Errorf("%s head dim = %d", k.Label, k.HeadDim)
		}
	}
}

func TestCompileAllModels(t *testing.T) {
	for _, cfg := range model.All() {
		c, err := Compile(cfg, target())
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if len(c.DPAttn) != 2 {
			t.Errorf("%s: %d DPA attention programs, want 2", cfg.Name, len(c.DPAttn))
		}
		if len(c.FCProgs) != 7 {
			t.Errorf("%s: %d FC programs, want 7", cfg.Name, len(c.FCProgs))
		}
	}
}

// TestFig10FootprintShape pins the paper's Fig. 10c claim: static unrolled
// footprint grows linearly with context while the DPA footprint is small
// and constant.
func TestFig10FootprintShape(t *testing.T) {
	c, err := Compile(model.LLM7B128KGQA(), target())
	if err != nil {
		t.Fatal(err)
	}
	dpa := c.DPAFootprint()
	if dpa <= 0 || dpa > 1024 {
		t.Errorf("DPA footprint = %d B, want small constant", dpa)
	}
	prev := int64(0)
	for _, tmax := range []int{32 << 10, 128 << 10, 1 << 20} {
		st, err := c.StaticFootprint(tmax)
		if err != nil {
			t.Fatal(err)
		}
		if st <= prev {
			t.Errorf("static footprint must grow with tmax: %d B at %d", st, tmax)
		}
		prev = st
	}
	st128, _ := c.StaticFootprint(128 << 10)
	if ratio := float64(st128) / float64(dpa); ratio < 50 {
		t.Errorf("static/DPA footprint ratio at 128K = %.0fx, want large", ratio)
	}
	st1m, _ := c.StaticFootprint(1 << 20)
	st128k, _ := c.StaticFootprint(128 << 10)
	lin := float64(st1m) / float64(st128k)
	if lin < 7 || lin > 9 {
		t.Errorf("8x context should give ~8x static footprint, got %.1fx", lin)
	}
}

// TestLoweredQKTMatchesKernelBuilder cross-checks the compiler against the
// channel-level kernel builder: the DPA program expanded at a context
// length must produce the same per-channel MAC count the simulator's
// command stack contains.
func TestLoweredQKTMatchesKernelBuilder(t *testing.T) {
	dev := timing.AiM16()
	tg := Target{Dev: dev, TCP: true}
	k := Kernel{Class: QKT, Label: "qk_t", HeadDim: 128, TokenDependent: true}
	p, err := tg.LowerAttentionDPA(k)
	if err != nil {
		t.Fatal(err)
	}
	for _, tokens := range []int{4096, 16384} {
		counts, err := p.CountExpanded(tokens)
		if err != nil {
			t.Fatal(err)
		}
		// Kernel builder: per-channel slice of tokens/channels.
		kc := kernels.NewConfig(dev, kernels.OBufBuffers(dev))
		stack := new(pim.Program)
		if err := kc.QKT(stack, tokens/dev.Channels, 128, 1, false); err != nil {
			t.Fatal(err)
		}
		st := kernels.StackStats(stack)
		perChannel := counts[isa.MAC] / int64(dev.Channels)
		if perChannel != int64(st.Mac) {
			t.Errorf("tokens=%d: compiler expands %d MACs/channel, builder emits %d",
				tokens, perChannel, st.Mac)
		}
	}
}

func TestLowerFCProgramShape(t *testing.T) {
	tg := target()
	k := Kernel{Class: FC, Label: "ffn_up", DIn: 4096, DOut: 12288}
	p, err := tg.LowerFC(k)
	if err != nil {
		t.Fatal(err)
	}
	counts, err := p.CountExpanded(1)
	if err != nil {
		t.Fatal(err)
	}
	// MAC-ops = din/16 tiles x ceil(dout/(banks*channels)) groups x channels.
	wantMAC := int64(4096/16) * int64((12288+255)/256) * 16
	if counts[isa.MAC] != wantMAC {
		t.Errorf("FC MAC commands = %d, want %d", counts[isa.MAC], wantMAC)
	}
}

func TestLoweringClassChecks(t *testing.T) {
	tg := target()
	if _, err := tg.LowerFC(Kernel{Class: QKT}); err == nil {
		t.Error("LowerFC on attention kernel should fail")
	}
	if _, err := tg.LowerAttentionDPA(Kernel{Class: FC}); err == nil {
		t.Error("LowerAttentionDPA on FC kernel should fail")
	}
	if _, err := tg.LowerAttentionStatic(Kernel{Class: FC}, 1024); err == nil {
		t.Error("LowerAttentionStatic on FC kernel should fail")
	}
	if _, err := tg.LowerAttentionStatic(Kernel{Class: QKT, HeadDim: 128}, 0); err == nil {
		t.Error("non-positive tmax should fail")
	}
}

func TestHFPMaskTargetsOneChannel(t *testing.T) {
	tg := Target{Dev: timing.AiM16(), TCP: false}
	p, err := tg.LowerAttentionDPA(Kernel{Class: QKT, Label: "q", HeadDim: 128, TokenDependent: true})
	if err != nil {
		t.Fatal(err)
	}
	cmds, err := p.Expand(256, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cmds {
		if c.Channel != 0 {
			t.Fatalf("HFP lowering touched channel %d", c.Channel)
		}
	}
}

func TestClassString(t *testing.T) {
	if QKT.String() != "qkt" || SV.String() != "sv" || FC.String() != "fc" {
		t.Fatal("class names changed")
	}
}
