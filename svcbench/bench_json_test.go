package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesTheProgram keeps BENCHMARK.json and the
// metrics and workloads this program reports in step.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q: %q, here %q: %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	for _, pair := range []struct {
		json []metric
		defs []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(pair.json) != len(pair.defs) {
			t.Errorf("%d metrics in BENCHMARK.json, %d here", len(pair.json), len(pair.defs))
			continue
		}
		for i, m := range pair.json {
			d := pair.defs[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("metric %d: BENCHMARK.json %v, here %v", i, m, d)
			}
		}
	}
}
