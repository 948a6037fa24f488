// The naive PIM pricing path, kept as the oracle the memoizing stepper
// (stepper.go) is pinned against: it materializes every iteration's
// mapping.Assign work lists, prices each work through the perfmodel
// service, and fans PP micro-batches out through the sweep engine.
// Production never runs it — every PIM backend prices through its
// stepper — so it lives here, next to the tests that compare the two
// bit for bit. The per-iteration TCP stepper path the leap run replaced
// (oracleStepSlice) lives here too, as the oracle FuzzLeapRun pins
// every run iteration against.
package backend

import (
	"context"
	"fmt"

	"pimphony/internal/mapping"
	"pimphony/internal/sweep"
	"pimphony/internal/timing"
	"pimphony/internal/workload"
)

// naiveStep prices one iteration for a PIM-attention backend on the
// oracle path, with the backend's own FC pricer and phase composition.
func naiveStep(ctx context.Context, be Backend, env *Env, batch []workload.Request, tokensOf TokensOf) (StepCost, error) {
	var p pimShared
	switch be.(type) {
	case pimOnly:
		return p.step(ctx, env, batch, tokensOf, pnmFC, additive)
	case xpuPIM:
		return p.step(ctx, env, batch, tokensOf, npuFC, overlapped)
	case dimmPIM:
		return p.step(ctx, env, batch, tokensOf, hostFC, overlapped)
	}
	return StepCost{}, fmt.Errorf("backend %s has no naive PIM pricing", be.Name())
}

// strategy maps the TCP toggle to the partitioning strategy.
func (p pimShared) strategy(env *Env) mapping.Strategy {
	if env.Tech.TCP {
		return mapping.TCP{}
	}
	return mapping.HFP{CapacityTokens: p.headCapacityTokens(env)}
}

// attentionLayer evaluates one layer's attention time on one module group
// for the given micro-batch of requests.
func (p pimShared) attentionLayer(env *Env, reqs []workload.Request, tokensOf TokensOf) (Stats, error) {
	m := env.Model
	// TP shards KV heads first; beyond the head count it shards the token
	// axis across module groups (how TP-centric systems like NeuPIMs keep
	// scaling past the head count).
	kvHeadsPerModule, tokenShard := p.headGeometry(env)
	mreqs := make([]mapping.Request, len(reqs))
	for i, r := range reqs {
		t := (tokensOf(r) + tokenShard - 1) / tokenShard
		mreqs[i] = mapping.Request{ID: r.ID, Tokens: t}
	}
	assign, err := p.strategy(env).Assign(mreqs, kvHeadsPerModule, m.GQAGroup, env.Dev.Channels)
	if err != nil {
		return Stats{}, err
	}
	sc, baseline := p.schedKind(env)
	var st Stats
	st.Channels = env.Dev.Channels
	var maxCh timing.Cycles
	for _, works := range assign.Channels {
		var chCycles timing.Cycles
		for _, w := range works {
			lat, err := p.priceAttention(env, w.Tokens, m.HeadDim, w.Queries, baseline, sc)
			if err != nil {
				return Stats{}, err
			}
			chCycles += lat.Cycles
			st.Busy += lat.Breakdown.MAC
			st.MACs += lat.MACs
			st.IOBytes += lat.IOBytes
			st.ActPre += lat.ActPre
		}
		if chCycles > maxCh {
			maxCh = chCycles
		}
	}
	st.Cycles = maxCh
	// EPU softmax: one per (request, query head) on this module, spread
	// over the EPU lanes; under TCP the segments are concatenated first
	// (no extra cost beyond the softmax itself).
	var softmax timing.Cycles
	qHeadsPerModule := kvHeadsPerModule * m.GQAGroup
	for _, r := range reqs {
		softmax += env.Hub.SoftmaxCycles((tokensOf(r)+tokenShard-1)/tokenShard) * timing.Cycles(qHeadsPerModule)
	}
	st.Cycles += softmax / epuLanes
	// TCP pays one SV reduction per (request, KV head); the HUB performs
	// reductions for completed heads while the channels compute the next
	// head, so only the lane-parallel EPU residue is exposed (the paper
	// measures < 0.2% of attention latency).
	if env.Tech.TCP {
		red := env.Hub.ReduceCycles(env.Dev.Channels, m.HeadDim)
		st.Cycles += red * timing.Cycles(len(reqs)*kvHeadsPerModule) / epuLanes
	}
	return st, nil
}

// stageTime returns the per-stage time in seconds for a micro-batch, plus
// the attention stats for utilization/energy accounting.
func (p pimShared) stageTime(env *Env, reqs []workload.Request, tokensOf TokensOf, fc fcFunc, combine combineFunc) (float64, Stats, float64, error) {
	at, err := p.attentionLayer(env, reqs, tokensOf)
	if err != nil {
		return 0, Stats{}, 0, err
	}
	fcSec := fc(env, len(reqs))
	syncSec := float64(p.syncCycles(env, len(reqs))) / cyclesPerSecond
	stage, attnShare := composeStage(env, at.Cycles, fcSec, syncSec, combine)
	return stage, stageStats(env, at), attnShare, nil
}

// step evaluates one decode iteration for a batch: the iteration time in
// seconds, the attention stats merged across the per-request stage
// evaluations (cycles and busy sum over PP micro-batches), and the
// attention share of iteration time.
func (p pimShared) step(ctx context.Context, env *Env, batch []workload.Request, tokensOf TokensOf, fc fcFunc, combine combineFunc) (StepCost, error) {
	if env.PP == 1 {
		sec, stats, share, err := p.stageTime(env, batch, tokensOf, fc, combine)
		return StepCost{Seconds: sec, AttnShare: share, Stats: stats}, err
	}
	// Request-granular micro-batches through PP stages: sum of
	// per-request stage times + (PP-1) bubbles of the max. The
	// per-request evaluations are independent (the perfmodel cache
	// is internally locked), so they fan out through the sweep
	// engine; the ordered reduction below accumulates floats in
	// request order, keeping the result identical to the
	// sequential loop.
	type stageOut struct {
		sec   float64
		stats Stats
		share float64
	}
	evalOne := func(r workload.Request) (stageOut, error) {
		st, stats1, share1, err := p.stageTime(env, []workload.Request{r}, tokensOf, fc, combine)
		return stageOut{st, stats1, share1}, err
	}
	var outs []stageOut
	var err error
	// Tiny batches are mostly memoized perfmodel hits; spinning a
	// worker pool per decode step costs more than it saves there
	// (and this loop already nests under the experiment grid and
	// stage-ladder sweeps).
	if len(batch) < 4 {
		outs = make([]stageOut, len(batch))
		for i, r := range batch {
			if outs[i], err = evalOne(r); err != nil {
				return StepCost{}, err
			}
		}
	} else {
		if outs, err = sweep.Run(ctx, batch, func(_ context.Context, r workload.Request) (stageOut, error) {
			return evalOne(r)
		}); err != nil {
			return StepCost{}, err
		}
	}
	var stats Stats
	var share float64
	var sum, max float64
	for _, o := range outs {
		sum += o.sec
		if o.sec > max {
			max = o.sec
		}
		stats.Busy += o.stats.Busy
		stats.Cycles += o.stats.Cycles
		stats.Channels = o.stats.Channels
		share += o.share
		stats.MACs += o.stats.MACs
		stats.IOBytes += o.stats.IOBytes
		stats.ActPre += o.stats.ActPre
	}
	share /= float64(len(batch))
	iterSec := sum + float64(env.PP-1)*max
	return StepCost{Seconds: iterSec, AttnShare: share, Stats: stats}, nil
}

// oracleStepSlice prices one iteration on the per-iteration stepper
// path the TCP run replaced: every request's base and base+1 slices are
// looked up in the stepper's shape memo and the channel max is swept
// over a rem-indexed excess histogram, for the whole batch, every
// iteration. HFP prices through the production path, which re-prices
// every iteration itself. It reads the stepper's memos and never its
// run, so a test can compare a live run against it on one stepper.
func oracleStepSlice(s *pimStepper, toks []int) (StepCost, error) {
	stage := func(toks []int) (StepCost, error) {
		if !s.tcp {
			return s.hfpStage(toks)
		}
		at, err := oracleTCPAttention(s, toks)
		if err != nil {
			return StepCost{}, err
		}
		sec, share := composeStage(s.env, at.Cycles, s.fcCost(len(toks)), s.syncCost(len(toks)), s.combine)
		return StepCost{Seconds: sec, AttnShare: share, Stats: stageStats(s.env, at)}, nil
	}
	if s.env.PP == 1 {
		return stage(toks)
	}
	var cost StepCost
	var max float64
	for i := range toks {
		c, err := stage(toks[i : i+1])
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

// oracleTCPAttention computes one layer's per-module TCP attention
// Stats from scratch. TCP slices every (request, head) token range
// evenly over all channels: rem channels carry base+1 tokens, the rest
// base. A request adds C0 to every channel and (C1-C0) to channels
// below its rem, so sums[ch] = ΣC0 + Σ_{rem>ch}(C1-C0): accumulate the
// common term and a rem-indexed delta histogram and fold the channel
// max in one sweep.
func oracleTCPAttention(s *pimStepper, toks []int) (Stats, error) {
	env := s.env
	channels := env.Dev.Channels
	var st Stats
	st.Channels = channels
	dd := make([]timing.Cycles, channels)
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
	}
	st.Cycles = maxCh
	// EPU softmax: one per (request, query head) on this module, over
	// the EPU lanes; then one lane-parallel SV reduction residue per
	// (request, KV head).
	qHeads := s.kvHeads * env.Model.GQAGroup
	st.Cycles += softSum * timing.Cycles(qHeads) / epuLanes
	red := env.Hub.ReduceCycles(channels, env.Model.HeadDim)
	st.Cycles += red * timing.Cycles(len(toks)*s.kvHeads) / epuLanes
	return st, nil
}
