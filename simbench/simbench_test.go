package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// The names and units BENCHMARK.json accepts.
var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	metricUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// runTiny runs a tiny instance of a workload once in this process.
func runTiny(t *testing.T, w workloadDef, seed int64, traced bool) childResult {
	t.Helper()
	res, err := measure(w, seed, tiny, traced, "")
	if err != nil {
		t.Fatalf("%s seed %d traced=%v: %v", w.name, seed, traced, err)
	}
	if res.OpsFailed != 0 {
		t.Fatalf("%s seed %d traced=%v: %d ops failed: %v", w.name, seed, traced, res.OpsFailed, res.Failures)
	}
	return res
}

func TestSameSeedSameDigest(t *testing.T) {
	for _, w := range workloads {
		a := runTiny(t, w, 7, false)
		b := runTiny(t, w, 7, false)
		if a.Digest != b.Digest {
			t.Errorf("%s: seed 7 gave digests %s and %s", w.name, a.Digest, b.Digest)
		}
	}
}

func TestDifferentSeedDifferentInputs(t *testing.T) {
	for _, w := range workloads {
		a, err := w.plan(1, tiny, false)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.plan(2, tiny, false)
		if err != nil {
			t.Fatal(err)
		}
		if a.inputs == b.inputs {
			t.Errorf("%s: seeds 1 and 2 generated identical inputs (%s)", w.name, a.inputs)
		}
		c, err := w.plan(1, tiny, true)
		if err != nil {
			t.Fatal(err)
		}
		if a.inputs != c.inputs {
			t.Errorf("%s: tracing changed the generated inputs", w.name)
		}
	}
}

func TestTracedDigestMatchesUntraced(t *testing.T) {
	for _, w := range workloads {
		plain := runTiny(t, w, 3, false)
		traced := runTiny(t, w, 3, true)
		if plain.Digest != traced.Digest {
			t.Errorf("%s: traced digest %s, untraced %s", w.name, traced.Digest, plain.Digest)
		}
		// The layers' self times plus the remainder account for the
		// traced wall time exactly.
		l := traced.Layers
		sum := l["serve.self_s"] + l["cluster.self_s"] + l["backend.s"] + l["memory.s"] + l["trace.remainder_s"]
		if math.Abs(sum-l["trace.wall_s"]) > 1e-6 {
			t.Errorf("%s: self times sum to %gs, traced wall is %gs", w.name, sum, l["trace.wall_s"])
		}
		if l["trace.spans"] < 1 || l["backend.step_calls"] < 1 {
			t.Errorf("%s: traced run recorded %g spans, %g step calls", w.name, l["trace.spans"], l["backend.step_calls"])
		}
	}
}

func TestEveryMetricEmittedAndNamed(t *testing.T) {
	w, err := lookupWorkload("kv-pressure")
	if err != nil {
		t.Fatal(err)
	}
	plain := sample{res: runTiny(t, w, 5, false), setupS: 0.01, rssMB: 20}
	var traced []sample
	for i := 0; i < 3; i++ {
		traced = append(traced, sample{res: runTiny(t, w, 5, true), traced: true})
	}
	for _, tc := range []struct {
		traced bool
		defs   []metricDef
	}{{false, endToEnd}, {true, perLayer}} {
		res, _ := summarize(w, 5, tc.traced, []sample{plain}, traced)
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("trace=%v: correct=%v attempted=%d failed=%d", tc.traced, res.Correct, res.Attempted, res.Failed)
		}
		if tc.traced {
			// The reported self times and remainder add up to the
			// reported traced wall.
			m := func(n string) float64 { return res.Metrics[n].Value }
			sum := m("serve.self_s") + m("cluster.self_s") + m("backend.s") + m("memory.s") + m("trace.remainder_s")
			if math.Abs(sum-m("trace.wall_s")) > 1e-6 {
				t.Errorf("reported self times sum to %gs, traced wall is %gs", sum, m("trace.wall_s"))
			}
		}
		if len(res.Metrics) != len(tc.defs) {
			t.Errorf("trace=%v: %d metrics emitted, %d defined", tc.traced, len(res.Metrics), len(tc.defs))
		}
		for _, d := range tc.defs {
			v, ok := res.Metrics[d.name]
			if !ok {
				t.Errorf("trace=%v: metric %s not emitted", tc.traced, d.name)
				continue
			}
			if v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("trace=%v: metric %s = %+v", tc.traced, d.name, v)
			}
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.name) || !metricUnit.MatchString(d.unit) || seen[d.name] {
			t.Errorf("metric %q (unit %q) has an invalid or repeated name or unit", d.name, d.unit)
		}
		seen[d.name] = true
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json's workload and
// metric lists identical to what the program runs and emits.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the program %d+%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end %d: BENCHMARK.json %s/%s, program %+v", i, m.Name, m.Unit, endToEnd[i])
		}
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer %d: BENCHMARK.json %s/%s, program %+v", i, m.Name, m.Unit, perLayer[i])
		}
	}
}
