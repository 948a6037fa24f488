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
// through: toks[i] is batch[i]'s current KV length, so no per-request
// TokensOf call is made. It must price identically to Step. cluster.New
// rejects a backend whose stepper lacks it. A serving leap prices
// through RunStepper when the stepper offers it and through a SliceRun
// otherwise.
type SliceStepper interface {
	StepSlice(ctx context.Context, batch []workload.Request, toks []int) (StepCost, error)
}

// RunStepper is the optional SliceStepper extension a serving leap
// prices through. A leap advances a stable batch — nothing admitted,
// completed or preempted — by one token per request per iteration, so a
// stepper that can advance its pricing state token by token prices the
// whole leap as one run instead of re-pricing the batch every
// iteration. cluster adapts a stepper without it (the GPU's, or a
// forwarding wrapper's) through a SliceRun.
type RunStepper interface {
	// StartRun seeds a run at the batch's current KV lengths toks (the
	// run keeps no reference to toks). The run's i-th Next, counting from
	// 0, prices the iteration at toks+i bit for bit as StepSlice would.
	// A stepper keeps one run: its next StartRun, Step or StepSlice call
	// ends the current one.
	StartRun(ctx context.Context, batch []workload.Request, toks []int) (StepRun, error)
}

// StepRun prices the consecutive iterations of a run.
type StepRun interface {
	Next() (StepCost, error)
}

// SliceRun is the run of a stepper that re-prices every iteration: each
// Next prices the next iteration through one StepSlice call. The zero
// value is ready for Start, and a SliceRun reused across runs allocates
// only when its batch outgrows every earlier one.
type SliceRun struct {
	st      SliceStepper
	ctx     context.Context
	batch   []workload.Request
	toks    []int
	started bool
}

// Start seeds r over st at the batch's KV lengths toks (r keeps no
// reference to toks), ending r's previous run.
func (r *SliceRun) Start(ctx context.Context, st SliceStepper, batch []workload.Request, toks []int) {
	r.st, r.ctx, r.batch, r.started = st, ctx, batch, false
	r.toks = append(r.toks[:0], toks...)
}

// Next implements StepRun.
func (r *SliceRun) Next() (StepCost, error) {
	if r.started {
		for j := range r.toks {
			r.toks[j]++
		}
	}
	r.started = true
	return r.st.StepSlice(r.ctx, r.batch, r.toks)
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
// appears. Under TCP it goes further and prices a stable batch as a run
// (pimRun) that advances each request's slice state by one token per
// iteration. Everything ahead of the final stage fold (composeStage) is
// integer arithmetic over the exact priced values the naive assignment
// walk would sum, which keeps the StepCost bit-identical to it.
type pimStepper struct {
	env     *Env
	shared  pimShared
	fc      fcFunc
	combine combineFunc

	// geometry, resolved once per system
	kvHeads    int
	qHeads     int // kvHeads x GQA group: softmaxes per request
	tokenShard int
	channels   int
	tcp        bool
	capTokens  int // HFP force-split channel capacity
	sc         perfmodel.Sched
	baseline   bool
	queries    int

	// lat holds every attention shape priced so far, append-only, and
	// latIdx maps a per-channel token count to its entry; both start on
	// the first price. lat[0] is the empty slice (zero tokens price to
	// zero cycles), so a TCP request with no base or no base+1 slice
	// indexes it without a branch. The index is a map rather than a table
	// dense in the token count: HFP keys run to tens of thousands of
	// tokens, and a dense table grows to the largest key on every System.
	lat    []perfmodel.Latency
	latIdx map[int]int32
	// The batch-size memos are dense slices with parallel validity
	// bitmaps: their keys are small.
	fcSec   []float64 // FC cost by micro-batch size
	fcOK    []bool
	syncSec []float64 // TP all-reduce cost by micro-batch size
	syncOK  []bool
	chSum   []timing.Cycles // per-channel scratch (channelSums)
	red     timing.Cycles   // Hub.ReduceCycles(channels, HeadDim), constant per system
	redOK   bool

	// Softmax pricing constants hoisted out of Hub.SoftmaxCycles, which
	// runs once per request per HFP iteration or TCP seed: same
	// arithmetic, no Device copy per call. (A per-token-count memo does
	// not pay here — decode sweeps mostly-distinct token counts, so it
	// never warms up.)
	softEPT     int
	softBase    timing.Cycles
	softPerTile timing.Cycles

	// run is the one pooled TCP run and hfp the one HFP run: StartRun
	// (and, under TCP, StepSlice) re-seeds them, so a run allocates only
	// when its batch outgrows every earlier one.
	run pimRun
	hfp SliceRun
}

func newPIMStepper(env *Env, shared pimShared, fc fcFunc, combine combineFunc) *pimStepper {
	kvHeads, tokenShard := shared.headGeometry(env)
	sc, baseline := shared.schedKind(env)
	s := &pimStepper{
		env: env, shared: shared, fc: fc, combine: combine,
		kvHeads: kvHeads, qHeads: kvHeads * env.Model.GQAGroup, tokenShard: tokenShard,
		channels: env.Dev.Channels, tcp: env.Tech.TCP, sc: sc, baseline: baseline,
		queries: env.Model.GQAGroup,

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
func (s *pimStepper) Step(ctx context.Context, batch []workload.Request, tokensOf TokensOf) (StepCost, error) {
	return s.StepSlice(ctx, batch, batchTokens(batch, tokensOf))
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

// StepSlice implements SliceStepper. Under TCP it is the first
// iteration of a fresh run; HFP prices from scratch.
func (s *pimStepper) StepSlice(ctx context.Context, batch []workload.Request, toks []int) (StepCost, error) {
	if !s.tcp {
		return s.hfpStep(toks)
	}
	run, err := s.StartRun(ctx, batch, toks)
	if err != nil {
		return StepCost{}, err
	}
	return run.Next()
}

// StartRun implements RunStepper. HFP re-prices every iteration, so its
// run is a SliceRun over the stepper.
func (s *pimStepper) StartRun(ctx context.Context, batch []workload.Request, toks []int) (StepRun, error) {
	if !s.tcp {
		s.hfp.Start(ctx, s, batch, toks)
		return &s.hfp, nil
	}
	if err := s.run.seed(s, toks); err != nil {
		return nil, err
	}
	return &s.run, nil
}

// hfpStep prices one HFP decode iteration from scratch. With PP stages
// the batch runs as request-granular micro-batches (pipeFold).
func (s *pimStepper) hfpStep(toks []int) (StepCost, error) {
	if s.env.PP == 1 {
		return s.hfpStage(toks)
	}
	var p pipeFold
	for i := range toks {
		c, err := s.hfpStage(toks[i : i+1])
		if err != nil {
			return StepCost{}, err
		}
		p.add(c)
	}
	return p.cost(len(toks), s.env.PP), nil
}

// hfpStage prices one pipeline stage for an HFP micro-batch.
func (s *pimStepper) hfpStage(toks []int) (StepCost, error) {
	at, err := s.hfpAttention(toks)
	if err != nil {
		return StepCost{}, err
	}
	sec, share := composeStage(s.env, at.Cycles, s.fcCost(len(toks)), s.syncCost(len(toks)), s.combine)
	return StepCost{Seconds: sec, AttnShare: share, Stats: stageStats(s.env, at)}, nil
}

// pipeFold sums request-granular micro-batch stages through PP stages:
// the iteration is the sum of the per-request stage times plus (PP-1)
// bubbles of the longest one, the attention stats accumulate over the
// micro-batches and the attention share is their mean. add runs in
// request order, so its float sums are the same at any batch size.
type pipeFold struct {
	sum StepCost
	max float64
}

func (p *pipeFold) add(c StepCost) {
	p.sum.Seconds += c.Seconds
	if c.Seconds > p.max {
		p.max = c.Seconds
	}
	p.sum.AttnShare += c.AttnShare
	p.sum.Stats.Cycles += c.Stats.Cycles
	p.sum.Stats.Busy += c.Stats.Busy
	p.sum.Stats.MACs += c.Stats.MACs
	p.sum.Stats.IOBytes += c.Stats.IOBytes
	p.sum.Stats.ActPre += c.Stats.ActPre
	p.sum.Stats.Channels = c.Stats.Channels
}

// cost closes the fold over n micro-batches on pp stages.
func (p *pipeFold) cost(n, pp int) StepCost {
	c := p.sum
	c.AttnShare /= float64(n)
	c.Seconds += float64(pp-1) * p.max
	return c
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
// the lat index rather than the Latency value so callers read the few
// fields they need in place instead of copying the whole struct; the
// index stays valid across later price calls (only the slice header
// moves on growth), but a *pointer* into s.lat would not.
func (s *pimStepper) price(tokens int) (int32, error) {
	if i, ok := s.latIdx[tokens]; ok {
		return i, nil
	}
	if s.latIdx == nil {
		s.lat = append(s.lat, perfmodel.Latency{})
		s.latIdx = map[int]int32{0: 0}
		if tokens == 0 {
			return 0, nil
		}
	}
	l, err := s.shared.priceAttention(s.env, tokens, s.env.Model.HeadDim, s.queries, s.baseline, s.sc)
	if err != nil {
		return 0, err
	}
	i := int32(len(s.lat))
	s.lat = append(s.lat, l)
	s.latIdx[tokens] = i
	return i, nil
}

// hfpAttention computes one layer's per-module attention Stats under
// head-first placement without materializing the assignment; toks holds
// each batch member's current KV length.
func (s *pimStepper) hfpAttention(toks []int) (Stats, error) {
	channels := s.channels
	st := Stats{Channels: channels}
	sums := s.channelSums()
	// HFP places whole (request, head) tiles round-robin, force-split
	// at the channel capacity — the same placement order Assign uses.
	// Every head of a request places the same tiles, so a request prices
	// its (at most two) shapes once.
	i := 0
	place := func(idx int32) {
		c := &s.lat[idx]
		sums[i%channels] += c.Cycles
		st.Busy += c.Breakdown.MAC
		st.MACs += c.MACs
		st.IOBytes += c.IOBytes
		st.ActPre += c.ActPre
		i++
	}
	var softmax timing.Cycles
	for _, tok := range toks {
		t := (tok + s.tokenShard - 1) / s.tokenShard
		full, tail := 0, t
		if s.capTokens > 0 && t > s.capTokens {
			full = (t - 1) / s.capTokens
			tail = t - full*s.capTokens
		}
		var fullIdx, tailIdx int32
		var err error
		if full > 0 {
			if fullIdx, err = s.price(s.capTokens); err != nil {
				return Stats{}, err
			}
		}
		if tailIdx, err = s.price(tail); err != nil {
			return Stats{}, err
		}
		for h := 0; h < s.kvHeads; h++ {
			for k := 0; k < full; k++ {
				place(fullIdx)
			}
			if tail > 0 {
				place(tailIdx)
			}
		}
		// EPU softmax: one per (request, query head), over the EPU lanes.
		softmax += s.softmax(t) * timing.Cycles(s.qHeads)
	}
	for _, c := range sums {
		if c > st.Cycles {
			st.Cycles = c
		}
	}
	st.Cycles += softmax / epuLanes
	return st, nil
}

// pimRun is a pimStepper's run. Under TCP every (request, head) token
// range is sliced evenly over all channels: rem channels carry base+1
// tokens, the rest base. A decode token lands in exactly one channel's
// slice, so each request's slice state (tcpSlice) advances by one token
// per iteration, and its contribution to the layer changes shape only at
// a few breakpoints: rem leaving zero (a base+1 slice appears) or
// wrapping into the next base, where the new slice shapes are priced,
// and its per-module token count entering a new softmax tile. Between
// them its MAC and traffic counters grow by a fixed per-token slope and
// its channel-sum terms hold. The run keeps the layer's sums over the
// batch current token by token and folds the stage (composeStage) only
// when the layer's attention cycles change. Every sum is integer cycles
// or counts, so the regrouping is exact: the i-th iteration's StepCost
// is bit-identical to pricing toks+i from scratch.
type pimRun struct {
	s       *pimStepper
	started bool // Next has priced the seed iteration
	// composes counts composeStage calls since the seed, for the tests
	// that pin how rarely a stable run folds.
	composes int

	// With PP stages every request is its own micro-batch with its own
	// fold (folds, parallel to sl); the layer sums and fold below cover
	// PP == 1.
	sl      []tcpSlice
	folds   []stageFold
	fcSec   float64 // FC and all-reduce of the run's micro-batch size
	syncSec float64
	// base0 sums the base-slice cycles over every request and head, and
	// sumD the (base+1)-slice excesses d: channel ch carries base0 plus
	// the d of every request whose rem exceeds ch. neg counts negative
	// excesses, where channel 0 need not be the longest.
	base0, sumD timing.Cycles
	neg         int
	soft        timing.Cycles // Σ softmax(t)
	cnt         counters
	fold        stageFold
}

// tcpSlice is one request's TCP slice state within a run. Its per-module
// KV token count t (the request's tokens over tokenShard, rounded up) is
// base·channels + rem.
type tcpSlice struct {
	left int // KV tokens until t advances (1 without token sharding)
	base int // every channel holds base tokens of each head ...
	rem  int // ... and channels below rem one more
	// i0 and i1 index the base- and (base+1)-token slice prices in lat
	// (0, the empty slice, when there is none).
	i0, i1 int32
	c0h    timing.Cycles // base-slice cycles over the heads
	d      timing.Cycles // a (base+1)-slice's excess over c0h (0 when rem == 0)
	soft   timing.Cycles // softmax(t)
	cnt    counters      // the request's counters over every channel and head
	slope  counters      // cnt's growth per token while base holds
}

// counters are a layer's MAC-busy cycles and MAC, IO-byte and ACT/PRE
// counts.
type counters struct {
	busy         timing.Cycles
	macs, io, ap int64
}

func (c *counters) add(o counters) {
	c.busy += o.busy
	c.macs += o.macs
	c.io += o.io
	c.ap += o.ap
}

func (c *counters) sub(o counters) {
	c.busy -= o.busy
	c.macs -= o.macs
	c.io -= o.io
	c.ap -= o.ap
}

// stageFold is the last composeStage result of a run's stage: the
// fold reads only the layer's attention cycles (FC and all-reduce are
// fixed for the run's micro-batch size), so it holds while they do.
type stageFold struct {
	cycles     timing.Cycles
	sec, share float64
	ok         bool
}

// seed starts the run at toks: every request's slices are priced
// afresh and every fold is cleared, so nothing of the previous run
// survives.
func (r *pimRun) seed(s *pimStepper, toks []int) error {
	*r = pimRun{s: s, sl: r.sl[:0], folds: r.folds[:0]}
	n := len(toks)
	if s.env.PP > 1 {
		n = 1
		r.folds = append(r.folds, make([]stageFold, len(toks))...)
	}
	r.fcSec, r.syncSec = s.fcCost(n), s.syncCost(n)
	if !s.redOK {
		s.red = s.env.Hub.ReduceCycles(s.channels, s.env.Model.HeadDim)
		s.redOK = true
	}
	for _, tok := range toks {
		t := (tok + s.tokenShard - 1) / s.tokenShard
		r.sl = append(r.sl, tcpSlice{left: t*s.tokenShard + 1 - tok, base: t / s.channels, rem: t % s.channels,
			soft: s.softmax(t)})
		sl := &r.sl[len(r.sl)-1]
		r.soft += sl.soft
		if err := r.place(sl); err != nil {
			return err
		}
	}
	return nil
}

// include adds sl's channel terms and counters to the layer sums.
func (r *pimRun) include(sl *tcpSlice) {
	r.base0 += sl.c0h
	r.sumD += sl.d
	if sl.d < 0 {
		r.neg++
	}
	r.cnt.add(sl.cnt)
}

// place prices sl's base and base+1 slices, derives its channel terms,
// counters and slopes, and adds it to the layer sums.
func (r *pimRun) place(sl *tcpSlice) error {
	s := r.s
	var err error
	if sl.i0, err = s.price(sl.base); err != nil {
		return err
	}
	sl.i1 = 0
	if sl.rem > 0 {
		if sl.i1, err = s.price(sl.base + 1); err != nil {
			return err
		}
	}
	l0, l1 := &s.lat[sl.i0], &s.lat[sl.i1]
	heads := timing.Cycles(s.kvHeads)
	kh := int64(s.kvHeads)
	sl.c0h = l0.Cycles * heads
	sl.d = 0
	if sl.rem > 0 {
		sl.d = l1.Cycles*heads - sl.c0h
	}
	// rem channels hold a base+1 slice of every head, the rest a base
	// slice (none when base is 0: l0 is the empty slice then).
	n1, n0 := int64(sl.rem), int64(s.channels-sl.rem)
	sl.cnt = counters{
		busy: timing.Cycles((int64(l1.Breakdown.MAC)*n1 + int64(l0.Breakdown.MAC)*n0) * kh),
		macs: (l1.MACs*n1 + l0.MACs*n0) * kh,
		io:   (l1.IOBytes*n1 + l0.IOBytes*n0) * kh,
		ap:   (l1.ActPre*n1 + l0.ActPre*n0) * kh,
	}
	sl.slope = counters{
		busy: (l1.Breakdown.MAC - l0.Breakdown.MAC) * heads,
		macs: (l1.MACs - l0.MACs) * kh,
		io:   (l1.IOBytes - l0.IOBytes) * kh,
		ap:   (l1.ActPre - l0.ActPre) * kh,
	}
	r.include(sl)
	return nil
}

// unplace removes sl from the layer sums ahead of a re-place.
func (r *pimRun) unplace(sl *tcpSlice) {
	r.base0 -= sl.c0h
	r.sumD -= sl.d
	if sl.d < 0 {
		r.neg--
	}
	r.cnt.sub(sl.cnt)
}

// step moves one request a KV token on, keeping the layer sums current.
func (r *pimRun) step(sl *tcpSlice) error {
	s := r.s
	if sl.left--; sl.left > 0 {
		return nil // token sharding: this module's share has not grown
	}
	sl.left = s.tokenShard
	sl.rem++
	if t := sl.base*s.channels + sl.rem; (t-1)%s.softEPT == 0 { // t entered a new softmax tile
		sl.soft += s.softPerTile
		r.soft += s.softPerTile
	}
	if sl.rem > 1 && sl.rem < s.channels {
		// One more channel holds a base+1 slice: the channel terms hold
		// and the counters grow by the slope.
		sl.cnt.add(sl.slope)
		r.cnt.add(sl.slope)
		return nil
	}
	// Breakpoint: a base+1 slice appeared, or the slices wrapped into
	// the next base.
	r.unplace(sl)
	if sl.rem == s.channels {
		sl.base, sl.rem = sl.base+1, 0
	}
	return r.place(sl)
}

// Next implements StepRun.
func (r *pimRun) Next() (StepCost, error) {
	s := r.s
	if r.started {
		for j := range r.sl {
			if err := r.step(&r.sl[j]); err != nil {
				return StepCost{}, err
			}
		}
	}
	r.started = true
	if s.env.PP == 1 {
		return r.stage(&r.fold, r.layer(r.channelMax(), r.soft, r.cnt, len(r.sl))), nil
	}
	var p pipeFold
	for j := range r.sl {
		sl := &r.sl[j]
		// A lone request's longest channel is a base+1 one when its
		// excess is positive, a base one otherwise.
		p.add(r.stage(&r.folds[j], r.layer(sl.c0h+max(sl.d, 0), sl.soft, sl.cnt, 1)))
	}
	return p.cost(len(r.sl), s.env.PP), nil
}

// channelMax is the longest channel's attention cycles over the batch.
// Channel ch carries base0 plus the excess d of every request whose rem
// exceeds ch, so channel 0 carries them all, and the sums change only
// at the requests' rems: moving past a rem drops its excesses. With no
// negative excess channel 0 is the longest; otherwise the longest is
// channel 0 or the channel at a negative excess's rem. Those few
// candidates are summed directly unless sweeping every channel is
// cheaper.
func (r *pimRun) channelMax() timing.Cycles {
	maxCh := r.base0 + r.sumD
	if r.neg == 0 {
		return maxCh
	}
	if r.neg*len(r.sl) <= r.s.channels {
		for j := range r.sl {
			if r.sl[j].d >= 0 {
				continue
			}
			v := r.base0
			for k := range r.sl {
				if r.sl[k].rem > r.sl[j].rem {
					v += r.sl[k].d
				}
			}
			maxCh = max(maxCh, v)
		}
		return maxCh
	}
	// Sweep the rem-indexed excess histogram from the last channel down.
	dd := r.s.channelSums()
	for j := range r.sl {
		dd[r.sl[j].rem] += r.sl[j].d
	}
	var suffix timing.Cycles
	for ch := len(dd) - 1; ch >= 0; ch-- {
		maxCh = max(maxCh, r.base0+suffix)
		suffix += dd[ch]
	}
	return maxCh
}

// channelSums returns the zeroed per-channel scratch. Only HFP pricing
// and the TCP channel sweep use it, so a System that never needs it
// (fleets of small TCP replicas) never allocates it.
func (s *pimStepper) channelSums() []timing.Cycles {
	if s.chSum == nil {
		s.chSum = make([]timing.Cycles, s.channels)
	}
	clear(s.chSum)
	return s.chSum
}

// layer assembles one layer's attention Stats for n requests from their
// longest channel, softmax sum and counters.
func (r *pimRun) layer(maxCh, soft timing.Cycles, cnt counters, n int) Stats {
	s := r.s
	// EPU softmax: one per (request, query head) on this module, spread
	// over the EPU lanes; the token segments are concatenated first, at
	// no extra cost beyond the softmax itself. TCP pays one SV reduction
	// per (request, KV head); the HUB reduces completed heads while the
	// channels compute the next one, so only the lane-parallel EPU
	// residue is exposed (the paper measures < 0.2% of attention
	// latency).
	return Stats{
		Cycles: maxCh + soft*timing.Cycles(s.qHeads)/epuLanes +
			s.red*timing.Cycles(n*s.kvHeads)/epuLanes,
		Busy: cnt.busy, MACs: cnt.macs, IOBytes: cnt.io, ActPre: cnt.ap,
		Channels: s.channels,
	}
}

// stage prices one stage of the run from its layer Stats, folding
// through composeStage only when the attention cycles moved.
func (r *pimRun) stage(f *stageFold, at Stats) StepCost {
	s := r.s
	if !f.ok || f.cycles != at.Cycles {
		f.sec, f.share = composeStage(s.env, at.Cycles, r.fcSec, r.syncSec, s.combine)
		f.cycles, f.ok = at.Cycles, true
		r.composes++
	}
	return StepCost{Seconds: f.sec, AttnShare: f.share, Stats: stageStats(s.env, at)}
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
