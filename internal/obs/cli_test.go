package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// TestCLIStartTraceLifecycle runs the full CLI wiring: trace + profiles
// on, one span and one counter recorded, stop flushes everything and
// restores the dark default.
func TestCLIStartTraceLifecycle(t *testing.T) {
	dir := t.TempDir()
	c := CLI{
		Trace:      filepath.Join(dir, "trace.jsonl"),
		CPUProfile: filepath.Join(dir, "cpu.pb"),
		MemProfile: filepath.Join(dir, "mem.pb"),
	}
	var stderr bytes.Buffer
	log, stop, err := c.Start(&stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !On() {
		t.Fatal("-trace did not enable the layer")
	}
	log.Infof("working")
	_, sp := Start(context.Background(), "unit")
	NewCounter("obs_test.cli").Add(11)
	sp.End()
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	if On() {
		t.Error("stop left the layer enabled")
	}
	if got := NewCounter("obs_test.cli").Value(); got != 0 {
		t.Errorf("stop left counter at %d", got)
	}

	data, err := os.ReadFile(c.Trace)
	if err != nil {
		t.Fatal(err)
	}
	var sawSpan, sawCounters bool
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("trace line %q: %v", sc.Text(), err)
		}
		switch {
		case e.Kind == KindSpan && e.Name == "unit":
			sawSpan = true
		case e.Kind == KindCounters:
			sawCounters = true
			if e.Counters["obs_test.cli"] != 11 {
				t.Errorf("snapshot counter = %d, want 11", e.Counters["obs_test.cli"])
			}
		}
	}
	if !sawSpan || !sawCounters {
		t.Errorf("trace missing span(%v)/counters(%v):\n%s", sawSpan, sawCounters, data)
	}

	for _, p := range []string{c.CPUProfile, c.MemProfile} {
		st, err := os.Stat(p)
		if err != nil {
			t.Errorf("profile %s: %v", p, err)
		} else if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
	out := stderr.String()
	if !strings.Contains(out, "span summary:") || !strings.Contains(out, "unit") {
		t.Errorf("stderr missing span summary:\n%s", out)
	}
	if !strings.Contains(out, "obs_test.cli") {
		t.Errorf("stderr missing counter table:\n%s", out)
	}
}

// TestCLIStartProfileDir pins the unified -profile-dir contract: the
// layer and pprof labelling come on, the cpu/heap pair lands at stable
// tool-derived names (no timestamps), an explicit legacy flag overrides
// its half of the pair, and stop restores the dark default.
func TestCLIStartProfileDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "profiles")
	fs := flag.NewFlagSet("snntestgen", flag.ContinueOnError)
	c := CLI{}
	c.Register(fs)
	if err := fs.Parse([]string{"-profile-dir", dir, "-quiet"}); err != nil {
		t.Fatal(err)
	}
	_, stop, err := c.Start(os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !On() {
		t.Fatal("-profile-dir did not enable the layer")
	}
	ctx, sp := Start(context.Background(), "profiletest/cli")
	if _, ok := pprof.Label(ctx, "phase"); !ok {
		t.Error("spans carry no pprof phase label under -profile-dir")
	}
	sp.End()
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if On() {
		t.Error("stop left the layer enabled")
	}
	for _, name := range []string{"snntestgen.cpu.pprof", "snntestgen.heap.pprof"} {
		p := filepath.Join(dir, name)
		st, err := os.Stat(p)
		if err != nil {
			t.Errorf("profile %s: %v", p, err)
		} else if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}

	// Explicit legacy flag wins over the derived cpu name; the heap half
	// still comes from the directory.
	cpu := filepath.Join(dir, "explicit.pb")
	c2 := CLI{Quiet: true, ProfileDir: dir, CPUProfile: cpu}
	_, stop2, err := c2.Start(os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop2(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(cpu); err != nil {
		t.Errorf("-cpuprofile alias ignored under -profile-dir: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "profile.heap.pprof")); err != nil {
		t.Errorf("unregistered CLI fallback heap name: %v", err)
	}
}

// TestCLIStartStallValidation pins -stall-timeout's dependency on both
// -serve and -ledger.
func TestCLIStartStallValidation(t *testing.T) {
	c := CLI{Stall: time.Second, Serve: ":0"}
	if _, _, err := c.Start(os.Stderr); err == nil {
		t.Fatal("want error for -stall-timeout without -ledger")
	}
	c = CLI{Stall: -time.Second}
	if _, _, err := c.Start(os.Stderr); err == nil {
		t.Fatal("want error for negative -stall-timeout")
	}
}

// TestCLIStartQuietSuppressesSummary keeps -quiet silent even with a
// trace enabled.
func TestCLIStartQuietSuppressesSummary(t *testing.T) {
	c := CLI{Quiet: true, Trace: filepath.Join(t.TempDir(), "trace.jsonl")}
	var stderr bytes.Buffer
	_, stop, err := c.Start(&stderr)
	if err != nil {
		t.Fatal(err)
	}
	_, sp := Start(context.Background(), "unit")
	sp.End()
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if stderr.Len() != 0 {
		t.Errorf("-quiet run wrote to stderr:\n%s", stderr.String())
	}
}

func TestCLIStartForceEnable(t *testing.T) {
	c := CLI{ForceEnable: true, Quiet: true}
	_, stop, err := c.Start(os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !On() {
		t.Fatal("ForceEnable did not enable the layer")
	}
	NewCounter("obs_test.force").Add(1)
	if Snapshot()["obs_test.force"] != 1 {
		t.Error("counter not live under ForceEnable")
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if On() {
		t.Error("stop left the layer enabled")
	}
}

func TestCLIStartBadTracePath(t *testing.T) {
	c := CLI{Trace: filepath.Join(t.TempDir(), "missing-dir", "t.jsonl")}
	if _, _, err := c.Start(os.Stderr); err == nil {
		t.Fatal("want error for uncreatable trace file")
	}
	if On() {
		t.Error("failed Start left the layer enabled")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	ResetCounters()
	t.Cleanup(ResetCounters)
	NewCounter("obs_test.manifest").Add(4)
	m := NewManifest(map[string]string{"scale": "tiny", "seed": "7"})
	if m.GitRev == "" || m.Time == "" || m.GoVersion == "" {
		t.Fatalf("incomplete manifest %+v", m)
	}
	if m.Counters["obs_test.manifest"] != 4 {
		t.Fatalf("manifest counters = %v", m.Counters)
	}
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := WriteManifest(path, m); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got Manifest
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("manifest is not valid JSON: %v\n%s", err, data)
	}
	if got.Config["scale"] != "tiny" || got.Counters["obs_test.manifest"] != 4 {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
}
