package cluster

import (
	"context"
	"math"
	"reflect"
	"testing"

	"pimphony/internal/workload"
)

// fleetReqs is a mixed-length request set that exercises completions
// and DPA chunk growth inside leaps.
func fleetReqs() []workload.Request {
	gen := workload.NewGenerator(workload.QMSum(), 7)
	reqs := gen.Batch(10)
	for i := range reqs {
		reqs[i].Decode = 5 + 7*(i%3)
	}
	return reqs
}

// TestLeapHorizonMatchesStepEventStream pins the SetHorizon clamp: a
// clamped leap drain must produce the identical flattened iteration
// trace as the naive one-step loop, at every clamp width, while never
// aggregating more iterations than the clamp allows.
func TestLeapHorizonMatchesStepEventStream(t *testing.T) {
	cfg := engineConfig(t, PIMphony())
	ref := drainTrace(t, engineFor(t, cfg, fleetReqs()), false)
	for _, h := range []int{1, 2, 3, 8} {
		e := engineFor(t, cfg, fleetReqs())
		e.SetHorizon(h)
		var got []stepTrace
		for i := 0; !e.Idle(); i++ {
			if i > 1_000_000 {
				t.Fatal("engine did not drain")
			}
			res, err := e.Leap(context.Background(), 0, math.Inf(1))
			if err != nil {
				t.Fatal(err)
			}
			if res.Iterations > h {
				t.Fatalf("horizon %d: leap aggregated %d iterations", h, res.Iterations)
			}
			if res.Iterations <= 1 {
				got = append(got, stepTrace{Seconds: res.Seconds, Batch: res.Batch,
					Admitted: ids(res.Admitted), Generated: append([]int(nil), res.Generated...),
					Preempted: ids(res.Preempted), Completed: ids(res.Completed)})
				continue
			}
			for it, sec := range res.IterSeconds {
				st := stepTrace{Seconds: sec, Batch: res.Batch,
					Generated: append([]int(nil), res.Generated...)}
				if it == res.Iterations-1 {
					st.Completed = ids(res.Completed)
				}
				got = append(got, st)
			}
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("horizon %d: clamped leap trace diverges from single stepping (%d vs %d iterations)",
				h, len(got), len(ref))
		}
	}
}

// TestEngineEnergyLeapEquivalence: per-iteration energy accrual must be
// identical between the single-step and fast-forward paths (the leap
// prices each aggregated iteration with the same cost the naive loop
// sees), and non-zero for a PIM backend.
func TestEngineEnergyLeapEquivalence(t *testing.T) {
	cfg := engineConfig(t, PIMphony())
	step := engineFor(t, cfg, fleetReqs())
	drain(t, step)
	leap := engineFor(t, cfg, fleetReqs())
	for i := 0; !leap.Idle(); i++ {
		if i > 1_000_000 {
			t.Fatal("engine did not drain")
		}
		if _, err := leap.Leap(context.Background(), 0, math.Inf(1)); err != nil {
			t.Fatal(err)
		}
	}
	sa, sf := step.Energy()
	la, lf := leap.Energy()
	if sa != la || sf != lf {
		t.Errorf("leap energy (%v, %v) != step energy (%v, %v)", la, lf, sa, sf)
	}
	if sa.Total() <= 0 || sf.Total() <= 0 {
		t.Errorf("PIM backend accrued no energy: attn %v fc %v", sa, sf)
	}
}

// TestEngineWithdrawResume walks the full migration handshake: preempt
// under DPA exhaustion, withdraw the victim with its progress, resume
// it on a second replica, and check that the destination charges no
// recompute and generates exactly the remaining tokens.
func TestEngineWithdrawResume(t *testing.T) {
	cfg := engineConfig(t, PIMphony())
	cfg.KVBudgetBytes = 4100 << 20 // two 4096-token prompts, 4 chunks of slack
	src := engineFor(t, cfg, []workload.Request{
		{ID: 1, Context: 4096, Decode: 8},
		{ID: 2, Context: 4096, Decode: 8},
	})
	var victim workload.Request
	for i := 0; ; i++ {
		if i > 10_000 {
			t.Fatal("no preemption under the exhaustion scenario")
		}
		res, err := src.Step(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Preempted) > 0 {
			victim = res.Preempted[0]
			break
		}
	}
	if _, _, err := src.Withdraw(victim.ID + 100); err == nil {
		t.Error("withdrawing an unknown request should fail")
	}
	if _, _, err := src.Withdraw(1); err == nil {
		t.Error("withdrawing the active request should fail")
	}
	r, gen, err := src.Withdraw(victim.ID)
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != victim.ID || gen <= 0 || gen >= r.Decode {
		t.Fatalf("withdrew %d with progress %d, want %d with progress in (0, %d)", r.ID, gen, victim.ID, r.Decode)
	}
	if src.Pending() != 0 {
		t.Errorf("source still has %d pending after withdrawal", src.Pending())
	}

	dstCfg := engineConfig(t, PIMphony())
	dst := engineFor(t, dstCfg, nil)
	if err := dst.EnqueueResumed(r, gen); err != nil {
		t.Fatal(err)
	}
	if got := dst.OutstandingTokens(); got != r.Decode-gen {
		t.Errorf("destination owes %d tokens, want the remaining %d", got, r.Decode-gen)
	}
	done := drain(t, dst)
	if len(done) != 1 || done[0].ID != r.ID {
		t.Fatalf("destination completed %v, want [%d]", ids(done), r.ID)
	}
	if dst.Generated() != r.Decode-gen {
		t.Errorf("destination generated %d tokens, want %d", dst.Generated(), r.Decode-gen)
	}
	if dst.RecomputeSeconds() != 0 {
		t.Errorf("resumed admission charged %g s of recompute; migration moves KV, it does not rebuild it",
			dst.RecomputeSeconds())
	}
	// The source finishes its survivor normally.
	if done := drain(t, src); len(done) != 1 || done[0].ID != 1 {
		t.Errorf("source completed %v, want [1]", ids(done))
	}
}

func TestEngineEnqueueResumedValidation(t *testing.T) {
	e := engineFor(t, engineConfig(t, PIMphony()), nil)
	r := workload.Request{ID: 9, Context: 4096, Decode: 8}
	if err := e.EnqueueResumed(r, -1); err == nil {
		t.Error("negative progress accepted")
	}
	if err := e.EnqueueResumed(r, 8); err == nil {
		t.Error("progress == Decode accepted (nothing left to generate)")
	}
	if err := e.EnqueueResumed(r, 3); err != nil {
		t.Fatal(err)
	}
	if err := e.EnqueueResumed(r, 3); err == nil {
		t.Error("duplicate resumed enqueue accepted")
	}
}

// TestEngineStealNewest: stealing pops the newest zero-progress pending
// request and leaves preempted (progressed) requests alone.
func TestEngineStealNewest(t *testing.T) {
	e := engineFor(t, engineConfig(t, PIMphony()), []workload.Request{
		{ID: 1, Context: 1024, Decode: 4},
		{ID: 2, Context: 1024, Decode: 4},
		{ID: 3, Context: 1024, Decode: 4},
	})
	r, ok := e.StealNewest()
	if !ok || r.ID != 3 {
		t.Fatalf("stole %v, want request 3 (the newest)", r.ID)
	}
	if e.Pending() != 2 {
		t.Errorf("pending %d after steal, want 2", e.Pending())
	}
	// The stolen request is fully forgotten: another engine — or even
	// this one — can enqueue it again.
	if err := e.Enqueue(r); err != nil {
		t.Fatalf("re-enqueue after steal: %v", err)
	}
	done := drain(t, e)
	if len(done) != 3 {
		t.Errorf("completed %d of 3", len(done))
	}
	if _, ok := e.StealNewest(); ok {
		t.Error("stole from an empty queue")
	}
}
