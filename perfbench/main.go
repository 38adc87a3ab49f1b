// Command perfbench is the repository benchmark. It runs the pipeline of
// cmd/snntestgen in-process with the CLIs' default flags (its criticality
// campaign is cmd/faultsim's on the same model), times every call into
// the layers from outside, checks the outputs and prints one JSON result
// line.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload testgen-nmnist --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// README.md documents the workloads, every metric and the correctness gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"github.com/repro/snntest/internal/obs"
)

// workload is one benchmark input: a CLI default-flag run on one model.
type workload struct {
	name  string
	bench string // snn.Build / dataset.ForBenchmark benchmark name
}

var workloads = []workload{
	{"testgen-nmnist", "nmnist"},
	{"testgen-gesture", "ibm-gesture"},
}

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions (checked by TestBenchmarkJSONMatches).
type metricDef struct{ name, unit, better string }

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"generate_s", "s", "lower"},
	{"campaign_s", "s", "lower"},
	{"total_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"faults_per_s", "1/s", "higher"},
	{"peak_mem_mb", "MB", "lower"},
	{"test_steps", "steps", "lower"},
	{"fc_critical_pct", "%", "higher"},
}

var perLayer = append([]metricDef{
	{"snn.build_s", "s", "lower"},
	{"dataset.gen_s", "s", "lower"},
	{"train.s", "s", "lower"},
	{"train.alloc_mb", "MB", "lower"},
	{"train.accuracy_pct", "%", "higher"},
	{"core.calibrate_s", "s", "lower"},
	{"core.t_in_min_steps", "steps", "lower"},
	{"core.restart_s", "s", "lower"},
	{"core.stage2_s", "s", "lower"},
	{"core.other_s", "s", "lower"},
	{"core.iterations", "count", "lower"},
	{"core.growths", "count", "lower"},
	{"core.activated_pct", "%", "higher"},
	{"core.graph_step_us", "us", "lower"},
	{"core.generate.alloc_mb", "MB", "lower"},
	{"fault.classify_s", "s", "lower"},
	{"fault.simulate_s", "s", "lower"},
	{"fault.other_s", "s", "lower"},
	{"fault.classify.layer_steps", "count", "lower"},
	{"fault.classify.replay_x", "x", "higher"},
	{"fault.simulate.replay_x", "x", "higher"},
	{"fault.critical_faults", "count", "higher"},
	{"fault.detected_faults", "count", "higher"},
	{"fault.classify.cpu_ns_per_layer_step", "ns", "lower"},
	{"fault.classify.pool_busy_frac", "frac", "higher"},
	{"fault.classify.alloc_mb", "MB", "lower"},
	{"runtime.gc_cpu_frac", "frac", "lower"},
	{"unattributed_s", "s", "lower"},
	{"traced_total_s", "s", "lower"},
	{"trace_overhead_pct", "%", "lower"},
}, probeMetrics()...)

// result is the last stdout line, the benchmark contract's result object.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: testgen-nmnist or testgen-gesture")
	seed := fs.Int64("seed", 1, "workload seed: draws the test split")
	seconds := fs.Int("seconds", 30, "measurement budget of the run")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (testgen-nmnist, testgen-gesture), --seconds ≥ 1 and --trace 0|1; got %q, %d, %d\n",
			*name, *seconds, *trace)
		return 2
	}

	b := &bench{w: *w, seed: *seed, log: stderr, t: newTracer()}
	res := b.measure(time.Duration(*seconds)*time.Second, *trace == 1)

	prov := obs.NewManifest(map[string]string{
		"workload":   w.name,
		"seed":       strconv.FormatInt(*seed, 10),
		"seconds":    strconv.Itoa(*seconds),
		"trace":      strconv.Itoa(*trace),
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"src_sha256": sourceDigest("."),
	})
	spansPath := filepath.Join(".bench_build", "spans",
		fmt.Sprintf("spans-%s-seed%d-trace%d.jsonl", w.name, *seed, *trace))
	if err := b.t.write(spansPath, prov); err != nil {
		fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"provenance": prov, "spans": spansPath}); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}
