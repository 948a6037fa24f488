package serve

import (
	"fmt"

	"pimphony/internal/workload"
)

// Placement places one request on a decode replica index, or returns -1
// to hold it in the fleet's global queue until a later decision point
// (the cross-replica admission control: no replica has KV headroom, so
// the request should not yet be committed to any per-replica queue).
//
// The set is sealed to the built-in policies below. Each answers from
// the fleet's ordered indexes (views.go) in O(log n): an index orders by
// (key, replica index), so "first entry that can admit the request" is
// "best fitting replica, ties to the lowest index". Replicas that are
// not online (standby, warming, draining, failed) or are degraded never
// fit. The linear scans the indexes replaced are the oracle in
// views_test.go. Placements may keep state, so each simulation needs
// its own instance.
type Placement interface {
	Name() string
	place(fs *fleetSim, r workload.Request) int
}

// KVHeadroom places on the fitting replica with the most free KV pool
// (ties break to the lowest index) and holds when nothing fits — the
// default global-scheduler policy: pack by capacity headroom, never
// commit a request to a replica that would have to queue it on memory.
func KVHeadroom() Placement { return kvHeadroom{} }

type kvHeadroom struct{}

func (kvHeadroom) Name() string { return "kv-headroom" }

// place walks online decoders by free KV descending (ties to the lowest
// index) and takes the first that can admit the request.
func (kvHeadroom) place(fs *fleetSim, r workload.Request) int {
	dst := -1
	fs.views.byFreeKV.ascend(func(i int) bool {
		if !fs.decoders[i].eng.HasHeadroom(r) {
			return true
		}
		dst = i
		return false
	})
	return dst
}

// LeastTokensFit places on the fitting replica owing the fewest decode
// tokens (ties break to the lowest index) and holds when nothing fits —
// the load-balancing analogue of LeastOutstandingTokens under the
// fleet's admission control.
func LeastTokensFit() Placement { return leastTokensFit{} }

type leastTokensFit struct{}

func (leastTokensFit) Name() string { return "least-tokens-fit" }

// place walks online decoders by outstanding decode tokens ascending
// (ties to the lowest index) and takes the first that can admit the
// request.
func (leastTokensFit) place(fs *fleetSim, r workload.Request) int {
	dst := -1
	fs.views.byTokens.ascend(func(i int) bool {
		if !fs.decoders[i].eng.HasHeadroom(r) {
			return true
		}
		dst = i
		return false
	})
	return dst
}

// RoundRobinFit cycles through the fitting replicas in decision order
// and holds when nothing fits — the load-oblivious fleet baseline.
func RoundRobinFit() Placement { return &roundRobinFit{} }

type roundRobinFit struct{ next int }

func (*roundRobinFit) Name() string { return "round-robin-fit" }

// place resumes the cyclic probe at the cursor over the online set
// (keyed by replica index): entries at or after the cursor first, then
// wrapping to those before it. Replicas that are not online never fit,
// so the probe skips them by walking the online index; degraded
// replicas stay in that index (they are online), so the probe skips
// them explicitly. The cursor advances only on a successful placement.
func (p *roundRobinFit) place(fs *fleetSim, r workload.Request) int {
	start := p.next % len(fs.decoders)
	dst := -1
	probe := func(i int) bool {
		if fs.degraded(i) || !fs.decoders[i].eng.HasHeadroom(r) {
			return true
		}
		dst = i
		return false
	}
	fs.views.online.ascendFrom(int64(start), start, probe)
	if dst < 0 {
		fs.views.online.ascend(func(i int) bool {
			if i >= start {
				return false // wrapped back to the cursor; stop
			}
			return probe(i)
		})
	}
	if dst >= 0 {
		p.next = dst + 1
	}
	return dst
}

// PlacementByName builds a fresh placement instance from its CLI name.
func PlacementByName(name string) (Placement, error) {
	switch name {
	case "kv-headroom":
		return KVHeadroom(), nil
	case "least-tokens-fit":
		return LeastTokensFit(), nil
	case "round-robin-fit":
		return RoundRobinFit(), nil
	default:
		return nil, fmt.Errorf("serve: unknown placement %q (known: %v)", name, PlacementNames())
	}
}

// PlacementNames lists the selectable fleet placement policies in CLI
// order.
func PlacementNames() []string {
	return []string{"kv-headroom", "least-tokens-fit", "round-robin-fit"}
}
