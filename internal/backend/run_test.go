package backend

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"pimphony/internal/model"
	"pimphony/internal/perfmodel"
	"pimphony/internal/timing"
)

// runConfigs are the geometries a run must price exactly: every
// PIM-attention backend, a PP>1 pipeline (CENT 72B-GQA) and token
// sharding past the KV heads (NeuPIMs 72B-GQA: TP 16 over 8 KV heads).
var runConfigs = []struct {
	name string
	be   Backend
	env  func(Technique) *Env
}{
	{"pim-only", pimOnly{}, func(t Technique) *Env { return pimEnv(model.LLM7B32K(), t) }},
	{"xpu+pim", xpuPIM{}, func(t Technique) *Env { return pimEnv(model.LLM7B32K(), t) }},
	{"dimm-pim", dimmPIM{}, func(t Technique) *Env { return dimmEnv(model.LLM7B32K(), t) }},
	{"cent-72b-gqa-pp4", pimOnly{}, centGQA72Env},
	{"neupims-72b-gqa-tp16", xpuPIM{}, func(t Technique) *Env {
		env := pimEnv(model.LLM72B128KGQA(), t)
		env.Dev = env.Dev.WithCapacity(32 << 30)
		env.Modules, env.TP = 16, 16
		return env
	}},
}

// runEnvs caches one Env per (config, technique) so the fuzz target
// reuses its perfmodel services' cold simulations across inputs.
var runEnvs struct {
	sync.Mutex
	m map[[2]int]*Env
}

// runStepper builds a fresh stepper for config c under technique bits
// tech (bit 0 TCP, bit 1 DCS) on a cached Env.
func runStepper(t testing.TB, c, tech int) *pimStepper {
	t.Helper()
	runEnvs.Lock()
	defer runEnvs.Unlock()
	if runEnvs.m == nil {
		runEnvs.m = map[[2]int]*Env{}
	}
	cfg := runConfigs[c]
	env, ok := runEnvs.m[[2]int{c, tech}]
	if !ok {
		env = cfg.env(Technique{TCP: tech&1 != 0, DCS: tech&2 != 0})
		if err := cfg.be.Validate(env); err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		runEnvs.m[[2]int{c, tech}] = env
	}
	return cfg.be.(Incremental).NewStepper(env).(*pimStepper)
}

// checkRun drives a run seeded at toks through iters iterations and
// pins each against the oracle at toks+i. It returns the token counts
// the run priced last.
func checkRun(t testing.TB, s *pimStepper, toks []int, iters int) []int {
	t.Helper()
	run, err := s.StartRun(context.Background(), nil, toks)
	if err != nil {
		t.Fatal(err)
	}
	at := append([]int(nil), toks...)
	for i := 0; i < iters; i++ {
		if i > 0 {
			for j := range at {
				at[j]++
			}
		}
		got, err := run.Next()
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracleStepSlice(s, at)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("iteration %d at %v diverged:\nrun    %+v\noracle %+v", i, at, got, want)
		}
	}
	return at
}

// FuzzLeapRun pins a run's i-th StepCost to the oracle's StepSlice at
// toks+i, bit for bit, across every PIM backend, TCP on and off, PP 1
// and 4, token sharding, batches of 1-16 and runs long enough to cross
// channel-wrap and softmax-tile boundaries. A second run on the same
// stepper then starts from token counts at, near and far from the first
// one's last iteration on a grown or shrunk batch: nothing of the first
// run may leak into it.
func FuzzLeapRun(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint8(5), int64(1), uint16(70), uint8(0))
	f.Add(uint8(1), uint8(3), uint8(16), int64(2), uint16(40), uint8(1))
	f.Add(uint8(2), uint8(1), uint8(3), int64(3), uint16(90), uint8(2))
	f.Add(uint8(3), uint8(3), uint8(6), int64(4), uint16(50), uint8(3))
	f.Add(uint8(4), uint8(3), uint8(9), int64(5), uint16(80), uint8(4))
	f.Add(uint8(0), uint8(0), uint8(4), int64(6), uint16(20), uint8(5))
	f.Add(uint8(3), uint8(2), uint8(2), int64(7), uint16(12), uint8(6))
	f.Add(uint8(4), uint8(0), uint8(7), int64(8), uint16(15), uint8(7))
	f.Add(uint8(0), uint8(3), uint8(4), int64(9), uint16(33), uint8(8))
	f.Fuzz(func(t *testing.T, cfg, tech, batch uint8, seed int64, iters uint16, reseed uint8) {
		c := int(cfg) % len(runConfigs)
		tk := int(tech) % 4
		n := int(batch)%16 + 1
		steps := int(iters)%160 + 1
		if tk&1 == 0 {
			steps = steps%24 + 1 // HFP re-prices every iteration: keep it short
		}
		s := runStepper(t, c, tk)
		rng := rand.New(rand.NewSource(seed))
		toks := make([]int, n)
		for j := range toks {
			switch rng.Intn(4) {
			case 0:
				toks[j] = rng.Intn(200) // sub-channel and first-wrap slices
			default:
				toks[j] = 1 + rng.Intn(40000)
			}
		}
		last := checkRun(t, s, toks, steps)
		// Start the next run at the last iteration's token counts, one or
		// two on, or far off, and grow or shrink the batch.
		next := append([]int(nil), last...)
		for j := range next {
			switch (int(reseed) + j) % 4 {
			case 1:
				next[j]++
			case 2:
				next[j] += 2
			case 3:
				next[j] = 1 + rng.Intn(40000)
			}
		}
		if reseed&8 != 0 && len(next) > 1 {
			next = next[:len(next)-1]
		} else {
			next = append(next, 1+rng.Intn(40000))
		}
		checkRun(t, s, next, steps%32+1)
		// A one-iteration StepSlice seeds the same way.
		want, err := oracleStepSlice(s, next)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := s.StepSlice(context.Background(), nil, next); err != nil || got != want {
			t.Fatalf("StepSlice after a run (%v):\nrun    %+v\noracle %+v", err, got, want)
		}
	})
}

// TestRunNonMonotoneTable seeds the shape memo with a latency table
// whose cycles fall as well as rise with the token count, so some
// requests' base+1 slices are cheaper than their base ones and channel
// 0 need not be the longest: both the candidate-channel scan and the
// full channel sweep must match the oracle.
func TestRunNonMonotoneTable(t *testing.T) {
	s := runStepper(t, 0, 3)
	if _, err := s.price(0); err != nil { // starts the memo
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	const maxBase = 64
	for k := 1; k <= maxBase; k++ {
		l := perfmodel.Latency{
			Cycles:  timing.Cycles(5000 + rng.Intn(4000)),
			MACs:    int64(1000 + rng.Intn(500)),
			IOBytes: int64(rng.Intn(9000)),
			ActPre:  int64(rng.Intn(50)),
		}
		l.Breakdown.MAC = timing.Cycles(rng.Intn(int(l.Cycles)))
		s.latIdx[k] = int32(len(s.lat))
		s.lat = append(s.lat, l)
	}
	var scans, sweeps int
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(16)
		toks := make([]int, n)
		for j := range toks {
			toks[j] = rng.Intn(s.channels * (maxBase - 8))
		}
		run, err := s.StartRun(context.Background(), nil, toks)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6*s.channels; i++ {
			got, err := run.Next()
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracleStepSlice(s, toks)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("trial %d iteration %d at %v diverged:\nrun    %+v\noracle %+v", trial, i, toks, got, want)
			}
			switch r := &s.run; {
			case r.neg == 0:
			case r.neg*len(r.sl) <= s.channels:
				scans++
			default:
				sweeps++
			}
			for j := range toks {
				toks[j]++
			}
		}
	}
	if scans == 0 || sweeps == 0 {
		t.Fatalf("negative excesses took the candidate scan %d times and the sweep %d times; want both", scans, sweeps)
	}
}

// TestRunFoldsOnlyWhenCyclesMove: a 1,000-iteration stable TCP run
// calls composeStage only when the layer's attention cycles change —
// once at the seed and once per change the oracle shows — and every
// iteration still prices to the oracle. A new seed at the last
// iteration's token counts, whose cycles are unchanged, folds afresh:
// a fold never outlives its run, whose batch size fixes the FC and
// all-reduce terms it folds in.
func TestRunFoldsOnlyWhenCyclesMove(t *testing.T) {
	s := runStepper(t, 0, 3)
	toks := []int{9000, 12000, 12001, 15500, 17000, 20000, 21333, 25000}
	run, err := s.StartRun(context.Background(), nil, toks)
	if err != nil {
		t.Fatal(err)
	}
	const iters = 1000
	changes := 0
	var prev timing.Cycles
	for i := 0; i < iters; i++ {
		got, err := run.Next()
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracleStepSlice(s, toks)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("iteration %d diverged:\nrun    %+v\noracle %+v", i, got, want)
		}
		if i == 0 || want.Stats.Cycles != prev {
			changes++
		}
		prev = want.Stats.Cycles
		if i < iters-1 {
			for j := range toks {
				toks[j]++
			}
		}
	}
	folds := s.run.composes
	if folds != changes {
		t.Errorf("run folded %d times over %d iterations; the attention cycles changed %d times", folds, iters, changes)
	}
	if folds*2 > iters {
		t.Errorf("run folded %d times over %d iterations: a stable TCP batch should hold its cycles for most of them", folds, iters)
	}
	t.Logf("%d composeStage calls over %d iterations", folds, iters)
	if _, err := s.StepSlice(context.Background(), nil, toks); err != nil {
		t.Fatal(err)
	}
	if s.run.composes != 1 {
		t.Errorf("a new seed at unchanged cycles folded %d times, want 1", s.run.composes)
	}
}
