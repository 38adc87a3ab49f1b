package main

import (
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workloads and metric
// tables in step with what the program measures and prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, tc := range []struct {
		kind string
		json []struct{ Name, Unit, Better string }
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(tc.json) != len(tc.defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", tc.kind, len(tc.json), len(tc.defs))
		}
		for i, m := range tc.json {
			if d := tc.defs[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", tc.kind, i, m, d)
			}
		}
	}
}

// TestCLIParity checks that the commands print exactly the values the
// in-process pipeline computes: T_in,min, chunks, test duration and FC
// lines for cmd/snntestgen, and the critical/benign counts for
// cmd/faultsim, on every workload's model. It runs every pipeline
// three times (about two minutes on two cores).
func TestCLIParity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the default-flag commands")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			b := &bench{w: w, seed: cliSeed, log: io.Discard, t: newTracer()}
			it := b.iterate(0, false)
			if it.err != nil {
				t.Fatal(it.err)
			}
			for _, cmd := range []string{"snntestgen", "faultsim"} {
				out, err := exec.Command("go", "run", "github.com/repro/snntest/cmd/"+cmd,
					"-quiet", "-bench", w.bench, "-scale", "tiny").Output()
				if err != nil {
					t.Fatalf("%s: %v", cmd, err)
				}
				printed := make(map[string]bool)
				for _, l := range strings.Split(string(out), "\n") {
					printed[l] = true
				}
				for _, l := range it.cli[cmd] {
					if !printed[l] {
						t.Errorf("%s did not print %q; it printed:\n%s", cmd, l, out)
					}
				}
			}
		})
	}
}
