package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestQuickWorkloads runs every workload in quick mode, untraced and
// traced, and checks the result line: well-formed JSON, zero failures,
// correct, and exactly the catalogue's metrics with their units.
func TestQuickWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name, run := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{seed: 3, seconds: time.Second, trace: traced, quick: true}
			out := t.TempDir()
			res, lines, err := execute(context.Background(), name, run, cfg, out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var back map[string]any
			if err := json.Unmarshal(b, &back); err != nil || len(back) != 4 {
				t.Fatalf("%s: result line %s does not round-trip to four keys", name, b)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", name, traced, d.name, m, d.unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, m.Value)
				}
				// Every timing is measured on every workload (the ladder
				// covers layers the workload does not drive), so none
				// reads a constant 0.
				if isTime := d.unit == "s" || d.unit == "ms" || d.unit == "us"; traced && isTime && m.Value == 0 {
					t.Errorf("%s: per-layer timing %s reads 0", name, d.name)
				}
			}
			if len(lines) < len(defs) {
				t.Errorf("%s: %d report lines for %d metrics", name, len(lines), len(defs))
			}
			if traced {
				for _, f := range []string{"spans.jsonl", "registry.json"} {
					if _, err := os.Stat(filepath.Join(traceDir(out, name, cfg), f)); err != nil {
						t.Errorf("%s: traced run wrote no %s: %v", name, f, err)
					}
				}
			}
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metric catalogue and the
// repository's BENCHMARK.json in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	check := func(kind string, defs []metricDef, got []struct{ Name, Unit, Better string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, catalogue %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			better := "higher"
			if d.lowerBetter {
				better = "lower"
			}
			if got[i].Name != d.name || got[i].Unit != d.unit || got[i].Better != better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, catalogue %s %s %s", kind, i, got[i], d.name, d.unit, better)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
}
