package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestRunSmoke drives the full binary pipeline — build, train, generate,
// verify — on a minimal budget and checks the headline report lines.
func TestRunSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{
		"-bench", "nmnist", "-scale", "tiny", "-epochs", "1",
		"-steps1", "8", "-max-iter", "1", "-restarts", "2",
		"-tinmin", "6", "-stride", "50",
	}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"T_in,min: 6 steps",
		"activated neurons:",
		"generation:",
		"restarts evaluated:",
		"FC critical neuron faults:",
		"FC benign synapse faults:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q; got:\n%s", want, out)
		}
	}
}

// TestRunProfileDirDarkIdentity pins that a -profile-dir run writes a
// CPU capture and leaves the tool's stdout byte-identical to a dark run:
// profiling is observability, never behaviour. The capture's phase
// attribution is gated by verify.sh on a full run, where the sample
// count is large enough to judge it.
func TestRunProfileDirDarkIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("live CPU profile capture in -short mode")
	}
	args := []string{
		"-bench", "nmnist", "-scale", "tiny", "-epochs", "2",
		"-steps1", "16", "-max-iter", "2", "-restarts", "4",
		"-tinmin", "6", "-stride", "50",
	}
	var dark, darkErr bytes.Buffer
	if err := run(args, &dark, &darkErr); err != nil {
		t.Fatalf("dark run: %v\nstderr:\n%s", err, darkErr.String())
	}

	dir := t.TempDir()
	var lit, litErr bytes.Buffer
	if err := run(append([]string{"-profile-dir", dir, "-quiet"}, args...), &lit, &litErr); err != nil {
		t.Fatalf("profiled run: %v\nstderr:\n%s", err, litErr.String())
	}
	// Wall-clock timings differ run to run even fully dark; everything
	// else — every count, percentage and table — must be byte-identical.
	durations := regexp.MustCompile(`[0-9]+(\.[0-9]+)?(ns|µs|us|ms|m|h|s)\b`)
	norm := func(s string) string { return durations.ReplaceAllString(s, "DUR") }
	if norm(dark.String()) != norm(lit.String()) {
		t.Errorf("-profile-dir changed stdout:\ndark:\n%s\nprofiled:\n%s", dark.String(), lit.String())
	}

	if fi, err := os.Stat(filepath.Join(dir, "snntestgen.cpu.pprof")); err != nil {
		t.Fatal(err)
	} else if fi.Size() == 0 {
		t.Error("-profile-dir wrote an empty CPU profile")
	}
}

func TestRunBadScale(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-scale", "bogus"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "unknown scale") {
		t.Fatalf("want unknown-scale error, got %v", err)
	}
}

func TestRunBadFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-no-such-flag"}, &stdout, &stderr); err == nil {
		t.Fatal("want flag-parse error, got nil")
	}
}
