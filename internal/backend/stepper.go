package backend

import (
	"context"

	"pimphony/internal/perfmodel"
	"pimphony/internal/timing"
	"pimphony/internal/workload"
)

// Incremental exposes a backend's stateful stepper, which memoizes the
// per-channel work assignment and the priced kernel shapes across decode
// iterations. Every built-in backend implements it, and its stepper is
// the backend's only pricer: Backend.Step builds a one-shot stepper and
// delegates. The naive mapping.Assign path of the PIM-attention backends
// survives only as the test oracle (TestStepperMatchesStep) the stepper
// is pinned against bit for bit.
type Incremental interface {
	NewStepper(env *Env) Stepper
}

// Stepper prices decode iterations for one system with state memoized
// across calls. Steppers are stateful and not safe for concurrent use;
// each cluster.System owns exactly one.
type Stepper interface {
	Step(ctx context.Context, batch []workload.Request, tokensOf TokensOf) (StepCost, error)
}

// SliceStepper is the Stepper entry point the cluster step loops price
// through, and the only one: toks[i] is batch[i]'s current KV length, so
// no per-request TokensOf call is made. It must price identically to
// Step. cluster.New rejects a backend whose stepper lacks it.
type SliceStepper interface {
	StepSlice(ctx context.Context, batch []workload.Request, toks []int) (StepCost, error)
}

// pimStepper is the pricer shared by the PIM-attention backends. A
// naive pricer would re-derive the same structures on every iteration:
// the mapping.Assign work lists — whose per-channel shape follows in
// closed form from the partitioning strategy — and the per-work
// perfmodel latencies, which collapse to at most two distinct shapes
// per request under TCP (token slices of base and base+1 tokens) and to
// the capacity tile plus one remainder under HFP. The stepper computes
// the per-channel cycle sums directly from those closed forms and
// memoizes each priced shape, so a decode iteration touches the
// perfmodel cache only when a token count the stepper has not seen yet
// appears. Everything ahead of the final stage fold (composeStage) is
// integer arithmetic over the exact priced values the naive assignment
// walk would sum, which keeps the StepCost bit-identical to it.
type pimStepper struct {
	env     *Env
	shared  pimShared
	fc      fcFunc
	combine combineFunc

	// geometry, resolved once per system
	kvHeads    int
	tokenShard int
	tcp        bool
	capTokens  int // HFP force-split channel capacity
	sc         perfmodel.Sched
	baseline   bool
	queries    int

	// The memo tables are dense slices indexed by their small integer
	// keys (per-channel token counts, micro-batch sizes) with parallel
	// validity bitmaps: the serving hot path hits them once per request
	// per iteration, where a map lookup's hashing dominated the lookup.
	lat     []perfmodel.Latency // priceAttention by per-channel tokens
	latOK   []bool
	fcSec   []float64 // FC cost by micro-batch size
	fcOK    []bool
	syncSec []float64 // TP all-reduce cost by micro-batch size
	syncOK  []bool
	chSum   []timing.Cycles // per-channel scratch
	red     timing.Cycles   // Hub.ReduceCycles(channels, HeadDim), constant per system
	redOK   bool

	// Softmax pricing constants hoisted out of Hub.SoftmaxCycles, which
	// runs once per request per iteration: same arithmetic, no Device
	// copy per call. (A per-token-count memo does not pay here — decode
	// sweeps mostly-distinct token counts, so it never warms up.)
	softEPT     int
	softBase    timing.Cycles
	softPerTile timing.Cycles
}

func newPIMStepper(env *Env, shared pimShared, fc fcFunc, combine combineFunc) *pimStepper {
	kvHeads, tokenShard := shared.headGeometry(env)
	sc, baseline := shared.schedKind(env)
	s := &pimStepper{
		env: env, shared: shared, fc: fc, combine: combine,
		kvHeads: kvHeads, tokenShard: tokenShard,
		tcp: env.Tech.TCP, sc: sc, baseline: baseline,
		queries: env.Model.GQAGroup,
		chSum:   make([]timing.Cycles, env.Dev.Channels),

		softEPT:     env.Dev.ElemsPerTile(),
		softBase:    env.Dev.EPUSoftmaxBase,
		softPerTile: env.Dev.EPUSoftmaxPerTile,
	}
	if !s.tcp {
		s.capTokens = shared.headCapacityTokens(env)
	}
	return s
}

// softmax is Hub.SoftmaxCycles with the device constants pre-resolved.
func (s *pimStepper) softmax(scores int) timing.Cycles {
	tiles := (scores + s.softEPT - 1) / s.softEPT
	return s.softBase + timing.Cycles(tiles)*s.softPerTile
}

// Step implements Stepper.
func (s *pimStepper) Step(_ context.Context, batch []workload.Request, tokensOf TokensOf) (StepCost, error) {
	return s.stepToks(batchTokens(batch, tokensOf))
}

// batchTokens lists each batch member's current KV length in batch
// order: every stepper's Step reduces to its StepSlice through it.
func batchTokens(batch []workload.Request, tokensOf TokensOf) []int {
	toks := make([]int, len(batch))
	for i, r := range batch {
		toks[i] = tokensOf(r)
	}
	return toks
}

// StepSlice implements SliceStepper.
func (s *pimStepper) StepSlice(_ context.Context, _ []workload.Request, toks []int) (StepCost, error) {
	return s.stepToks(toks)
}

// stepToks prices one decode iteration. With PP stages the batch runs
// as request-granular micro-batches: the iteration is the sum of the
// per-request stage times plus (PP-1) bubbles of the longest one, the
// attention stats accumulate over the micro-batches and the attention
// share is their mean. The fold runs in request order, so its float
// sums are the same at any batch size.
func (s *pimStepper) stepToks(toks []int) (StepCost, error) {
	if s.env.PP == 1 {
		return s.stage(toks)
	}
	var cost StepCost
	var max float64
	for i := range toks {
		c, err := s.stage(toks[i : i+1])
		if err != nil {
			return StepCost{}, err
		}
		cost.Seconds += c.Seconds
		if c.Seconds > max {
			max = c.Seconds
		}
		cost.AttnShare += c.AttnShare
		cost.Stats.Cycles += c.Stats.Cycles
		cost.Stats.Busy += c.Stats.Busy
		cost.Stats.MACs += c.Stats.MACs
		cost.Stats.IOBytes += c.Stats.IOBytes
		cost.Stats.ActPre += c.Stats.ActPre
		cost.Stats.Channels = c.Stats.Channels
	}
	cost.AttnShare /= float64(len(toks))
	cost.Seconds += float64(s.env.PP-1) * max
	return cost, nil
}

// stage prices one pipeline stage for a micro-batch.
func (s *pimStepper) stage(toks []int) (StepCost, error) {
	at, err := s.attention(toks)
	if err != nil {
		return StepCost{}, err
	}
	sec, stats, share := composeStage(s.env, at, s.fcCost(len(toks)), s.syncCost(len(toks)), s.combine)
	return StepCost{Seconds: sec, AttnShare: share, Stats: stats}, nil
}

func (s *pimStepper) fcCost(batch int) float64 {
	if batch < len(s.fcOK) && s.fcOK[batch] {
		return s.fcSec[batch]
	}
	v := s.fc(s.env, batch)
	s.fcSec, s.fcOK = memoPut(s.fcSec, s.fcOK, batch, v)
	return v
}

func (s *pimStepper) syncCost(batch int) float64 {
	if batch < len(s.syncOK) && s.syncOK[batch] {
		return s.syncSec[batch]
	}
	v := float64(s.shared.syncCycles(s.env, batch)) / cyclesPerSecond
	s.syncSec, s.syncOK = memoPut(s.syncSec, s.syncOK, batch, v)
	return v
}

// memoPut stores v at index k, growing the dense memo to fit.
func memoPut[T any](vals []T, ok []bool, k int, v T) ([]T, []bool) {
	if k >= len(vals) {
		vals = append(vals, make([]T, k+1-len(vals))...)
		ok = append(ok, make([]bool, k+1-len(ok))...)
	}
	vals[k] = v
	ok[k] = true
	return vals, ok
}

// price memoizes priceAttention for one per-channel token count (the
// query count is the GQA group for every work of a batch). It returns
// the memo index rather than the Latency value so hot callers read the
// few fields they need in place instead of copying the whole struct;
// the index stays valid across later price calls (only the slice header
// moves on growth), but a *pointer* into s.lat would not.
func (s *pimStepper) price(tokens int) (int, error) {
	if tokens < len(s.latOK) && s.latOK[tokens] {
		return tokens, nil
	}
	l, err := s.shared.priceAttention(s.env, tokens, s.env.Model.HeadDim, s.queries, s.baseline, s.sc)
	if err != nil {
		return 0, err
	}
	s.lat, s.latOK = memoPut(s.lat, s.latOK, tokens, l)
	return tokens, nil
}

// attention computes one layer's per-module attention Stats without
// materializing the assignment; toks holds each batch member's current
// KV length.
func (s *pimStepper) attention(toks []int) (Stats, error) {
	env := s.env
	channels := env.Dev.Channels
	var st Stats
	st.Channels = channels
	if s.tcp {
		// TCP slices every (request, head) token range evenly over all
		// channels: rem channels carry base+1 tokens, the rest base. The
		// per-channel sums are never walked per request: a request adds
		// C0 to every channel and (C1-C0) to channels below its rem, so
		// sums[ch] = ΣC0 + Σ_{rem>ch}(C1-C0) — accumulate the common term
		// and a rem-indexed delta histogram (all integer cycles, so the
		// regrouping is exact) and fold the channel max in one sweep.
		dd := s.chSum // zeroed by the previous sweep (or by make)
		var base0, busy, softSum timing.Cycles
		var macs, io, ap int64
		heads := timing.Cycles(s.kvHeads)
		kh := int64(s.kvHeads)
		for _, tok := range toks {
			t := tok
			if s.tokenShard != 1 {
				t = (tok + s.tokenShard - 1) / s.tokenShard
			}
			base, rem := t/channels, t%channels
			var cyc0, mac0, cyc1, mac1 timing.Cycles
			var macs0, io0, ap0, macs1, io1, ap1 int64
			if base > 0 {
				i0, err := s.price(base)
				if err != nil {
					return Stats{}, err
				}
				l := &s.lat[i0]
				cyc0, mac0, macs0, io0, ap0 = l.Cycles, l.Breakdown.MAC, l.MACs, l.IOBytes, l.ActPre
			}
			if rem > 0 {
				i1, err := s.price(base + 1)
				if err != nil {
					return Stats{}, err
				}
				l := &s.lat[i1]
				cyc1, mac1, macs1, io1, ap1 = l.Cycles, l.Breakdown.MAC, l.MACs, l.IOBytes, l.ActPre
			}
			c0h := cyc0 * heads
			base0 += c0h
			if rem > 0 {
				dd[rem] += cyc1*heads - c0h
			}
			n1 := int64(rem)
			n0 := int64(channels - rem)
			if base == 0 {
				n0 = 0 // zero-token slices are not placed
			}
			busy += timing.Cycles((int64(mac1)*n1 + int64(mac0)*n0) * kh)
			macs += (macs1*n1 + macs0*n0) * kh
			io += (io1*n1 + io0*n0) * kh
			ap += (ap1*n1 + ap0*n0) * kh
			softSum += s.softmax(t)
		}
		st.Busy, st.MACs, st.IOBytes, st.ActPre = busy, macs, io, ap
		var maxCh, suffix timing.Cycles
		for ch := channels - 1; ch >= 0; ch-- {
			if v := base0 + suffix; v > maxCh {
				maxCh = v
			}
			suffix += dd[ch]
			dd[ch] = 0
		}
		st.Cycles = maxCh
		// EPU softmax: one per (request, query head) on this module,
		// spread over the EPU lanes; the token segments are concatenated
		// first, at no extra cost beyond the softmax itself.
		qHeads := s.kvHeads * env.Model.GQAGroup
		st.Cycles += softSum * timing.Cycles(qHeads) / epuLanes
		// TCP pays one SV reduction per (request, KV head); the HUB
		// reduces completed heads while the channels compute the next
		// one, so only the lane-parallel EPU residue is exposed (the
		// paper measures < 0.2% of attention latency).
		if !s.redOK {
			s.red = env.Hub.ReduceCycles(channels, env.Model.HeadDim)
			s.redOK = true
		}
		st.Cycles += s.red * timing.Cycles(len(toks)*s.kvHeads) / epuLanes
		return st, nil
	}
	sums := s.chSum
	for i := range sums {
		sums[i] = 0
	}
	// HFP places whole (request, head) tiles round-robin, force-split
	// at the channel capacity — the same placement order Assign uses.
	i := 0
	place := func(tokens int) error {
		idx, err := s.price(tokens)
		if err != nil {
			return err
		}
		c := &s.lat[idx]
		sums[i%channels] += c.Cycles
		st.Busy += c.Breakdown.MAC
		st.MACs += c.MACs
		st.IOBytes += c.IOBytes
		st.ActPre += c.ActPre
		i++
		return nil
	}
	for _, tok := range toks {
		t := (tok + s.tokenShard - 1) / s.tokenShard
		for h := 0; h < s.kvHeads; h++ {
			tt := t
			if s.capTokens > 0 {
				for tt > s.capTokens {
					if err := place(s.capTokens); err != nil {
						return Stats{}, err
					}
					tt -= s.capTokens
				}
			}
			if tt > 0 {
				if err := place(tt); err != nil {
					return Stats{}, err
				}
			}
		}
	}
	var maxCh timing.Cycles
	for _, c := range sums {
		if c > maxCh {
			maxCh = c
		}
	}
	st.Cycles = maxCh
	// EPU softmax: one per (request, query head), over the EPU lanes.
	var softmax timing.Cycles
	qHeads := s.kvHeads * env.Model.GQAGroup
	for _, tok := range toks {
		softmax += s.softmax((tok+s.tokenShard-1)/s.tokenShard) * timing.Cycles(qHeads)
	}
	st.Cycles += softmax / epuLanes
	return st, nil
}

// NewStepper implements Incremental.
func (p pimOnly) NewStepper(env *Env) Stepper {
	return newPIMStepper(env, p.pimShared, pnmFC, additive)
}

// NewStepper implements Incremental.
func (x xpuPIM) NewStepper(env *Env) Stepper {
	return newPIMStepper(env, x.pimShared, npuFC, overlapped)
}

// NewStepper implements Incremental.
func (d dimmPIM) NewStepper(env *Env) Stepper {
	return newPIMStepper(env, d.pimShared, hostFC, overlapped)
}
