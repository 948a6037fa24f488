// Incrementally maintained scheduler views: the fleet-size-independent
// answer to every question the global scheduler used to answer with an
// O(n) scan per decision. Each ordered index (ordindex.go) and each
// aggregate counter is updated at exactly the engine events that change
// it — admit, token growth, completion, preemption, transfer landing,
// provision, drain — through two choke points:
//
//   - touch(i): replica i's engine state (or its incoming/landing
//     transfer counts) changed; refresh its index keys, set
//     memberships and aggregate contributions. O(log n).
//   - setState(i, st): replica i's autoscaling lifecycle state changed;
//     move it between the online views, the standby index and the
//     state counters. O(log n).
//
// Every view reproduces its linear scan byte for byte: the indexes
// order by (key, replica index), so "first acceptable entry in index
// order" is exactly "best entry, ties to the lowest index" — the oracle
// suite in views_test.go pins each one against the scan it replaced.
package serve

import "math"

// fleetViews is the indexed-scheduler state embedded in fleetSim.
type fleetViews struct {
	// byFreeKV orders online decoders by free KV descending (key is
	// -FreeKVBytes): KVHeadroom placement and migration-destination
	// picks take the first entry that admits the request.
	byFreeKV ordIndex
	// byTokens orders online decoders by outstanding decode tokens
	// ascending: LeastTokensFit takes the first entry that admits.
	byTokens ordIndex
	// online is the online decoder set in index order — the cyclic
	// cursor domain of RoundRobinFit.
	online ordIndex
	// stealSrc orders steal sources — decoders with an active batch and
	// a backlog — by pending count descending (key is -Pending): the
	// first entry is the most backlogged replica, ties to lowest index.
	stealSrc ordIndex
	// thieves is the steal-thief set: online decoders with no work at
	// all and no transfer already in flight toward them.
	thieves ordIndex
	// drainable is the drain-candidate set (thieves minus replicas with
	// a colocated prefill about to land); its count is the view's
	// IdleOnline and its last entry the next drain victim.
	drainable ordIndex
	// standby is the offline replica set; its first entry is the next
	// provision target.
	standby ordIndex
	// prefillFree orders dedicated prefill servers by next-free time
	// (key is the order-preserving Float64bits image of the
	// non-negative free timestamp).
	prefillFree ordIndex

	// Cached per-decoder contributions currently folded into the
	// aggregates below (zero while a replica is not online).
	pending, active []int
	free            []int64
	pool            []int64 // KVPoolBytes, constant per replica

	// Aggregates over the online decoders, and the lifecycle counters —
	// together the O(1) AutoscaleView fold.
	queued, activeSum                 int
	freeSum, poolSum                  int64
	onlineCnt, warmingCnt, standbyCnt int
	failedCnt                         int

	// thiefScratch is the steal loop's reused thief snapshot.
	thiefScratch []int
}

// initViews sizes the indexes and folds in the fleet's initial replica
// states (engines all empty, pools all free).
func (fs *fleetSim) initViews() {
	v := &fs.views
	n := len(fs.decoders)
	v.byFreeKV.init(n)
	v.byTokens.init(n)
	v.online.init(n)
	v.stealSrc.init(n)
	v.thieves.init(n)
	v.drainable.init(n)
	v.standby.init(n)
	v.pending = make([]int, n)
	v.active = make([]int, n)
	v.free = make([]int64, n)
	v.pool = make([]int64, n)
	for i, d := range fs.decoders {
		v.pool[i] = d.eng.KVPoolBytes()
		switch fs.state[i] {
		case stateOnline:
			v.onlineCnt++
			v.poolSum += v.pool[i]
			v.online.set(i, int64(i))
			fs.touch(i)
		case stateOffline:
			v.standbyCnt++
			v.standby.set(i, int64(i))
		}
	}
	v.prefillFree.init(len(fs.prefills))
	for pi, p := range fs.prefills {
		fs.touchPrefill(pi, p)
	}
}

// touch refreshes replica i's view entries after any engine call or
// transfer-count change. Non-online replicas carry no entries (their
// engines are empty by construction — work never lands on standby,
// warming or draining replicas), so the online guard keeps touch and
// setState from double-counting.
func (fs *fleetSim) touch(i int) {
	if fs.state[i] != stateOnline {
		return
	}
	v := &fs.views
	eng := fs.decoders[i].eng
	pending, active := eng.Pending(), eng.Active()
	free := eng.FreeKVBytes()
	v.queued += pending - v.pending[i]
	v.activeSum += active - v.active[i]
	v.freeSum += free - v.free[i]
	v.pending[i], v.active[i], v.free[i] = pending, active, free
	if fs.degraded(i) {
		// A slowdown-degraded replica leaves the placement and
		// migration-target indexes — new work routes around it while its
		// admitted batch limps on — but keeps its aggregate contributions
		// (it is online and still serving) and stays a steal source.
		v.byFreeKV.remove(i)
		v.byTokens.remove(i)
	} else {
		v.byFreeKV.set(i, -free)
		v.byTokens.set(i, int64(eng.OutstandingTokens()))
	}
	if active > 0 && pending > 0 {
		v.stealSrc.set(i, -int64(pending))
	} else {
		v.stealSrc.remove(i)
	}
	idle := eng.Idle() && fs.incoming[i] == 0
	if idle && !fs.degraded(i) {
		v.thieves.set(i, int64(i))
	} else {
		v.thieves.remove(i)
	}
	if idle && fs.landing[i] == 0 {
		v.drainable.set(i, int64(i))
	} else {
		v.drainable.remove(i)
	}
}

// setState moves replica i across the autoscaling lifecycle, keeping
// every index membership and counter in step with fs.state.
func (fs *fleetSim) setState(i int, st replState) {
	if fs.state[i] == st {
		return
	}
	v := &fs.views
	switch fs.state[i] {
	case stateOnline:
		v.onlineCnt--
		v.queued -= v.pending[i]
		v.activeSum -= v.active[i]
		v.freeSum -= v.free[i]
		v.poolSum -= v.pool[i]
		v.pending[i], v.active[i], v.free[i] = 0, 0, 0
		v.byFreeKV.remove(i)
		v.byTokens.remove(i)
		v.online.remove(i)
		v.stealSrc.remove(i)
		v.thieves.remove(i)
		v.drainable.remove(i)
	case stateWarming:
		v.warmingCnt--
	case stateOffline:
		v.standbyCnt--
		v.standby.remove(i)
	case stateFailed:
		v.failedCnt--
	}
	fs.state[i] = st
	switch st {
	case stateOnline:
		v.onlineCnt++
		v.poolSum += v.pool[i]
		v.online.set(i, int64(i))
		fs.touch(i)
	case stateWarming:
		v.warmingCnt++
	case stateOffline:
		v.standbyCnt++
		v.standby.set(i, int64(i))
	case stateFailed:
		v.failedCnt++
	}
}

// touchPrefill re-keys a dedicated prefill server after it took a
// prompt. Float64bits is order-preserving on the non-negative free
// timestamps, so first() is the earliest-free server, ties to the
// lowest index — exactly the scan pickPrefill ran.
func (fs *fleetSim) touchPrefill(pi int, p *prefillServer) {
	fs.views.prefillFree.set(pi, int64(math.Float64bits(p.free)))
}
