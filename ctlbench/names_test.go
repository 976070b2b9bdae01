package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// The metrics a run prints are exactly the ones BENCHMARK.json declares,
// with the same units, and every workload it lists exists.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, sp := range specs {
		known[sp.name] = true
	}
	for _, w := range decl.Workloads {
		if !known[w.Name] {
			t.Errorf("BENCHMARK.json lists workload %q, which the benchmark does not run", w.Name)
		}
	}

	for _, sp := range specs {
		e2e := endToEnd(sp, 1, nil)
		e2e.set("setup_s", 1, "s")
		e2e.set("heap_mb", 1, "MB")
		compare(t, sp.name+" end-to-end", e2e, decl.EndToEnd)
		compare(t, sp.name+" per-layer", perLayer(nil, nil, &replaySamples{}, nil, storeDelta{}), decl.PerLayer)
	}
}

func compare(t *testing.T, what string, got metrics, want []struct{ Name, Unit string }) {
	t.Helper()
	seen := map[string]bool{}
	for _, w := range want {
		seen[w.Name] = true
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s declared but not reported", what, w.Name)
		case m.Unit != w.Unit:
			t.Errorf("%s: %s reported in %s, declared in %s", what, w.Name, m.Unit, w.Unit)
		}
	}
	for name := range got {
		if !seen[name] {
			t.Errorf("%s: %s reported but not declared", what, name)
		}
	}
}
