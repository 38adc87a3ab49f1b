package main

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"encoding/json"

	"github.com/repro/snntest/internal/obs"
)

// TestRunSmoke executes the full quickstart tour and checks each of its
// report lines, so the example cannot silently rot as the public facade
// evolves.
func TestRunSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(nil, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := stdout.String()
	for _, want := range []string{
		"network \"nmnist\":",
		"spike train under constant drive:",
		"generated test:",
		"compacted test:",
		"fault universe:",
		"FC = ",
		"campaign work:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q; got:\n%s", want, out)
		}
	}
}

// TestRunTrace runs the quickstart with -trace and validates the emitted
// JSONL end to end: every line parses, the span tree covers
// calibrate → generate (per restart) → compact → campaign, campaign spans
// nest under compaction, the counter snapshot reconciles with the
// per-campaign span attributes, and the run events carry one fault event
// per simulated fault.
func TestRunTrace(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-quiet", "-trace", trace}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	if stderr.Len() != 0 {
		t.Errorf("-quiet run wrote to stderr:\n%s", stderr.String())
	}
	if obs.On() {
		t.Error("run left the obs layer enabled")
	}

	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var events []obs.Event
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var e obs.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("trace line %q is not valid JSON: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	spans := map[string][]obs.Event{}
	var counters map[string]int64
	var faultEvents int64
	for _, e := range events {
		switch e.Kind {
		case obs.KindSpan:
			spans[e.Name] = append(spans[e.Name], e)
		case obs.KindCounters:
			counters = e.Counters
		case obs.KindFault:
			faultEvents++
		}
	}
	for _, name := range []string{
		"quickstart", "generate", "generate/calibrate", "generate/iteration",
		"generate/restart", "generate/stage2", "compact", "campaign/simulate",
	} {
		if len(spans[name]) == 0 {
			t.Errorf("span tree missing %q", name)
		}
	}
	if counters == nil {
		t.Fatal("trace has no counter snapshot")
	}

	// The quickstart runs the default single restart per iteration.
	if got, want := len(spans["generate/restart"]), len(spans["generate/iteration"]); got != want {
		t.Errorf("restart spans = %d, want %d (one per iteration)", got, want)
	}
	// Per-chunk compaction campaigns nest under the compact span.
	if len(spans["compact"]) == 1 {
		compID := spans["compact"][0].ID
		nested := 0
		for _, s := range spans["campaign/simulate"] {
			if s.Parent == compID {
				nested++
			}
		}
		if nested == 0 {
			t.Error("no campaign/simulate span nests under compact")
		}
	}

	// Reconciliation: the counter snapshot's campaign layer-steps must
	// equal the sum of the per-campaign span attributes.
	var attrSum int64
	for _, s := range spans["campaign/simulate"] {
		v, ok := s.Attrs["layer_steps"].(float64)
		if !ok {
			t.Fatalf("campaign span missing layer_steps attr: %v", s.Attrs)
		}
		attrSum += int64(v)
	}
	if counters["fault_layer_steps_total"] != attrSum {
		t.Errorf("fault_layer_steps_total counter = %d, span attrs sum to %d",
			counters["fault_layer_steps_total"], attrSum)
	}
	for _, name := range []string{
		"snn_forward_passes_total", "snn_layer_steps_total", "snn_spikes_total",
		"core_iterations_total", "core_restarts_run_total", "fault_simulated_total", "fault_detected_total",
		"fault_full_layer_steps_total",
	} {
		if counters[name] <= 0 {
			t.Errorf("counter %s = %d, want > 0", name, counters[name])
		}
	}
	// A plain -trace run carries the run events: one fault event per
	// simulated fault.
	if faultEvents != counters["fault_simulated_total"] {
		t.Errorf("trace has %d fault events, fault_simulated_total = %d",
			faultEvents, counters["fault_simulated_total"])
	}
	if counters["snn_layer_steps_total"] < counters["fault_layer_steps_total"] {
		t.Errorf("snn_layer_steps_total (%d) < fault_layer_steps_total (%d)",
			counters["snn_layer_steps_total"], counters["fault_layer_steps_total"])
	}
}

// TestRunTraceMatchesDarkRun pins the zero-interference contract at the
// example level: stdout is byte-identical with and without -trace.
func TestRunTraceMatchesDarkRun(t *testing.T) {
	var dark, lit, stderr bytes.Buffer
	if err := run(nil, &dark, &stderr); err != nil {
		t.Fatal(err)
	}
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := run([]string{"-quiet", "-trace", trace}, &lit, &stderr); err != nil {
		t.Fatal(err)
	}
	stripRuntime := func(s string) string {
		// The "runtime …" suffix of the generated-test line is wall-clock
		// dependent; everything else must match byte for byte.
		var out []string
		for _, l := range strings.Split(s, "\n") {
			if i := strings.Index(l, ", runtime "); i >= 0 {
				l = l[:i]
			}
			out = append(out, l)
		}
		return strings.Join(out, "\n")
	}
	if stripRuntime(dark.String()) != stripRuntime(lit.String()) {
		t.Errorf("-trace changed the run's stdout:\n--- dark ---\n%s\n--- traced ---\n%s",
			dark.String(), lit.String())
	}
}
