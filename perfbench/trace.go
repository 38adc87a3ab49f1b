package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/repro/snntest/internal/obs"
)

// span is one timed call into a layer, recorded by the benchmark from
// outside the program. Spans of one pipeline iteration share Run.
type span struct {
	Name    string `json:"name"`
	Run     string `json:"run"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps the benchmark's spans in memory until the run ends. It is
// used from the benchmark's main goroutine only.
type tracer struct {
	epoch time.Time
	spans []span
	// program holds the spans the program itself emitted through the obs
	// layer during traced iterations, keyed by the iteration's run id.
	program map[string][]obs.Event
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), program: make(map[string][]obs.Event)}
}

// start opens a span and returns its id (ids start at 1; 0 is "no parent").
func (t *tracer) start(run, name string, parent int) int {
	t.spans = append(t.spans, span{
		Name: name, Run: run, ID: len(t.spans) + 1, Parent: parent,
		StartNS: time.Since(t.epoch).Nanoseconds(),
	})
	return len(t.spans)
}

// end closes span id and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	sp := &t.spans[id-1]
	sp.EndNS = time.Since(t.epoch).Nanoseconds()
	return float64(sp.EndNS-sp.StartNS) / 1e9
}

// timed runs fn inside a span and returns the span's duration in seconds.
func (t *tracer) timed(run, name string, parent int, fn func() error) (float64, error) {
	id := t.start(run, name, parent)
	err := fn()
	return t.end(id), err
}

// write stores the provenance record, then every benchmark span, then the
// program's own obs spans, as JSON lines.
func (t *tracer) write(path string, prov obs.Manifest) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"provenance": prov}); err != nil {
		return err
	}
	for _, sp := range t.spans {
		if err := enc.Encode(map[string]any{"bench_span": sp}); err != nil {
			return err
		}
	}
	runs := make([]string, 0, len(t.program))
	for run := range t.program {
		runs = append(runs, run)
	}
	sort.Strings(runs)
	for _, run := range runs {
		for _, e := range t.program[run] {
			if err := enc.Encode(map[string]any{"run": run, "program_span": e}); err != nil {
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// selfSeconds sums the self time (duration minus the part covered by
// child spans) of the program spans with the given name.
func selfSeconds(events []obs.Event, name string) float64 {
	childUS := make(map[uint64]int64)
	for _, e := range events {
		if e.Parent != 0 {
			childUS[e.Parent] += e.DurUS
		}
	}
	var us int64
	for _, e := range events {
		if e.Name == name {
			us += e.DurUS - childUS[e.ID]
		}
	}
	return float64(us) / 1e6
}

// sourceDigest hashes the Go sources and go.mod files under root, the
// revision stamp of a checkout that is not a git repository.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(path + "\x00"))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
