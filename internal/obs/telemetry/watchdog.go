package telemetry

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"github.com/repro/snntest/internal/obs"
)

// obsStallSnapshots counts watchdog firings; it lands on /metrics so a
// scraper can alert on stalls even if nobody reads the snapshot files.
var obsStallSnapshots = obs.NewCounter("telemetry_stall_snapshots_total")

// Watchdog watches the run tracker for stalled campaigns: a tracked,
// non-terminal run whose last progress update is older than the deadline
// triggers a stall snapshot — a full goroutine dump plus a runtime-
// metrics and counter snapshot — written into the flight-recorder ledger
// directory next to the run journals. That is exactly the evidence a
// post-mortem needs for the failure mode the progress API cannot explain
// from outside: is the pool deadlocked, starved by GC, or wedged on one
// pathological fault.
//
// One snapshot is written per stall episode: a run that resumes progress
// and stalls again is snapshotted again, but a run that stays wedged is
// not re-dumped every sweep. Snapshot files are named stall-<runid>.txt
// (timestamp-free, so a re-fired episode overwrites rather than
// accumulating unboundedly).
type Watchdog struct {
	sink     *Sink
	dir      string
	deadline time.Duration
	stop     chan struct{}
	done     chan struct{}
	// snapped maps run id → the run's Updated timestamp at snapshot
	// time; a stalled run is re-dumped only after Updated moves.
	snapped map[string]time.Time
}

// NewWatchdog builds a watchdog over the sink's tracked runs, writing
// stall snapshots under dir. It does not start sweeping until Start.
func NewWatchdog(sink *Sink, dir string, deadline time.Duration) *Watchdog {
	return &Watchdog{
		sink:     sink,
		dir:      dir,
		deadline: deadline,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		snapped:  make(map[string]time.Time),
	}
}

// Start launches the sweep loop. The sweep cadence is a quarter of the
// deadline (floored at 100ms), so a stall is detected at most 1.25
// deadlines after the run's last event.
func (w *Watchdog) Start() {
	interval := w.deadline / 4
	if interval < 100*time.Millisecond {
		interval = 100 * time.Millisecond
	}
	go func() {
		defer close(w.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case now := <-t.C:
				w.sweep(now)
			}
		}
	}()
}

// Stop terminates the sweep loop and waits for it to exit.
func (w *Watchdog) Stop() {
	close(w.stop)
	<-w.done
}

// sweep scans the tracked runs once and snapshots every newly stalled
// one, returning how many snapshots were written. Factored off the
// ticker loop so tests can drive it with a synthetic clock.
func (w *Watchdog) sweep(now time.Time) int {
	wrote := 0
	for _, r := range w.sink.Runs() {
		if r.Terminal || r.Rehydrated || r.Updated.IsZero() {
			continue
		}
		if now.Sub(r.Updated) < w.deadline {
			continue
		}
		if last, ok := w.snapped[r.ID]; ok && last.Equal(r.Updated) {
			continue // same stall episode, already dumped
		}
		if err := w.snapshot(r, now); err != nil {
			// The ledger dir going away is not worth crashing the server
			// over; the next sweep retries.
			continue
		}
		w.snapped[r.ID] = r.Updated
		obsStallSnapshots.Add(1)
		wrote++
	}
	return wrote
}

// snapshot writes one stall report: run state, runtime resource gauges,
// the full counter registry, and a debug=2 goroutine dump.
func (w *Watchdog) snapshot(r RunProgress, now time.Time) error {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "stall snapshot for run %s\n", r.ID)
	fmt.Fprintf(&buf, "phase: %s\nprogress: %d/%d (%.1f%%)\n", r.Phase, r.Done, r.Total, r.Percent)
	fmt.Fprintf(&buf, "last update: %s (%s before snapshot)\n", r.Updated.Format(time.RFC3339Nano), now.Sub(r.Updated))
	fmt.Fprintf(&buf, "deadline: %s\n\n", w.deadline)

	SampleRuntime()
	buf.WriteString("-- gauges (incl. runtime metrics) --\n")
	for _, m := range obs.GaugeSnapshot() {
		fmt.Fprintf(&buf, "%s %d\n", m.Name, m.Value)
	}
	buf.WriteString("\n-- counters --\n")
	for _, m := range obs.SnapshotOrdered() {
		fmt.Fprintf(&buf, "%s %d\n", m.Name, m.Value)
	}

	buf.WriteString("\n-- goroutine dump --\n")
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 2); err != nil {
		fmt.Fprintf(&buf, "goroutine dump failed: %v\n", err)
	}
	return os.WriteFile(filepath.Join(w.dir, "stall-"+r.ID+".txt"), buf.Bytes(), 0o644)
}
