package telemetry

import (
	"sync"
	"time"

	"github.com/repro/snntest/internal/obs"
	"github.com/repro/snntest/internal/obs/ledger"
)

// maxRuns bounds the retained run history; the oldest runs are evicted
// first so a long-lived server cannot grow without bound. Eviction
// drops a run's curve state and event ring along with it.
const maxRuns = 64

// maxRunEvents bounds the per-run journal tail kept for the
// /runs/{id}/events endpoint; older entries age out of memory (the
// on-disk ledger journal, when enabled, keeps the full history).
const maxRunEvents = 256

// obsRunsTracked mirrors the in-memory run-history size onto /metrics.
var obsRunsTracked = obs.NewGauge("telemetry_runs_tracked")

// RunProgress is the JSON shape of one tracked run as served by /runs
// and /runs/{id}. A "run" is one activity instance with a run id — a
// fault-simulation campaign, a classification campaign, or a generation
// loop — reconstructed from its run events.
type RunProgress struct {
	ID    string `json:"id"`
	Phase string `json:"phase"` // the run's event name, e.g. "campaign/simulate"
	Done  int    `json:"done"`
	Total int    `json:"total"`
	// Percent is 100*Done/Total (0 when Total is 0).
	Percent float64 `json:"percent"`
	// Started/Updated are the first and latest event times.
	Started time.Time `json:"started"`
	Updated time.Time `json:"updated"`
	// ElapsedMS is Updated-Started; ETAMS extrapolates the remaining
	// wall-clock from the observed rate (-1 while unknown, 0 when done).
	ElapsedMS int64 `json:"elapsed_ms"`
	ETAMS     int64 `json:"eta_ms"`
	// Detected/CoveragePercent give live fault coverage for campaign
	// runs (detected-or-critical count so far and its percentage of the
	// faults completed); both are zero for non-campaign runs.
	Detected        int64   `json:"detected,omitempty"`
	CoveragePercent float64 `json:"coverage_percent,omitempty"`
	// Terminal marks a run that reached done == total or whose run_end
	// arrived.
	Terminal bool `json:"terminal"`
	// Rehydrated marks a run restored from a ledger journal written by
	// an earlier process rather than observed live.
	Rehydrated bool `json:"rehydrated,omitempty"`
}

// Sink tracks live runs from the obs event stream. It implements
// obs.Sink; register it with obs.AddSink (the obs.CLI -serve path does
// this) and every run event becomes queryable run state. Safe for
// concurrent Emit and snapshot use.
type Sink struct {
	mu   sync.Mutex
	runs []*runState
}

// runState is the mutable tracking record behind one RunProgress. Its
// done, total, detected and terminal state live in the curve, which
// folds the run's events.
type runState struct {
	id         string
	phase      string
	started    time.Time
	updated    time.Time
	rehydrated bool
	curve      *ledger.CurveBuilder
	// events is the bounded journal tail.
	events []ledger.Entry
}

// NewSink returns an empty run tracker.
func NewSink() *Sink { return &Sink{} }

// Emit consumes one obs event. Run events and generation progress fold
// into the run named by the event's run id; spans, counter snapshots
// and events without a run id are ignored (the /metrics endpoint serves
// counters directly from the registry).
func (s *Sink) Emit(e obs.Event) {
	if e.Run == "" {
		return
	}
	entry, isRunEvent := ledger.EntryFromEvent(e)
	if !isRunEvent && e.Kind != obs.KindProgress {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.byIDLocked(e.Run, e.Name, e.Start)
	r.updated = e.Start
	if isRunEvent {
		r.curve.Apply(entry)
		r.appendEventLocked(entry)
	} else {
		r.curve.Progress(e.Done, e.Total)
	}
}

// appendEventLocked pushes one entry onto the run's bounded tail.
func (r *runState) appendEventLocked(e ledger.Entry) {
	if len(r.events) >= maxRunEvents {
		copy(r.events, r.events[1:])
		r.events[len(r.events)-1] = e
		return
	}
	r.events = append(r.events, e)
}

// byIDLocked returns the run with the given id, creating it when unseen
// (events may arrive in any order near eviction).
func (s *Sink) byIDLocked(id, phase string, start time.Time) *runState {
	for i := len(s.runs) - 1; i >= 0; i-- {
		if s.runs[i].id == id {
			return s.runs[i]
		}
	}
	r := &runState{id: id, phase: phase, started: start, curve: ledger.NewCurveBuilder(id, phase)}
	s.insertLocked(r)
	return r
}

// insertLocked appends a run and enforces the retention bound.
func (s *Sink) insertLocked(r *runState) {
	s.runs = append(s.runs, r)
	if len(s.runs) > maxRuns {
		s.runs = append(s.runs[:0:0], s.runs[len(s.runs)-maxRuns:]...)
	}
	obsRunsTracked.Set(int64(len(s.runs)))
}

// Rehydrate restores run history from the ledger journals under dir,
// replaying each journal through the same curve fold the live event
// path uses. Runs already tracked (same id) are left untouched, so
// rehydrating is idempotent and never clobbers a live run. The
// retention bound applies as usual; with more journals than capacity
// the lexicographically-latest (≈ newest) runs win.
func (s *Sink) Rehydrate(dir string) error {
	ids, err := ledger.List(dir)
	if err != nil {
		return err
	}
	for _, id := range ids {
		entries, err := ledger.ReadRun(dir, id)
		if err != nil || len(entries) == 0 {
			// A vanished or fully-torn journal is not worth failing the
			// server over; skip it.
			continue
		}
		s.rehydrateRun(id, entries)
	}
	return nil
}

// rehydrateRun folds one journal into a tracked run.
func (s *Sink) rehydrateRun(id string, entries []ledger.Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.runs {
		if r.id == id {
			return
		}
	}
	r := &runState{id: id, rehydrated: true, curve: ledger.NewCurveBuilder(id, "")}
	for _, e := range entries {
		r.curve.Apply(e)
		r.appendEventLocked(e)
		if r.phase == "" && e.Name != "" {
			r.phase = e.Name
		}
		if r.started.IsZero() || e.Time.Before(r.started) {
			r.started = e.Time
		}
		if e.Time.After(r.updated) {
			r.updated = e.Time
		}
	}
	s.insertLocked(r)
}

// Runs returns a snapshot of every tracked run in start order.
func (s *Sink) Runs() []RunProgress {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]RunProgress, 0, len(s.runs))
	for _, r := range s.runs {
		out = append(out, r.progress())
	}
	return out
}

// Run returns the run with the given id, if tracked.
func (s *Sink) Run(id string) (RunProgress, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.runs {
		if r.id == id {
			return r.progress(), true
		}
	}
	return RunProgress{}, false
}

// Coverage returns the run's derived coverage curve; false when the run
// is unknown.
func (s *Sink) Coverage(id string) (ledger.Curve, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.runs {
		if r.id == id {
			return r.curve.Curve(), true
		}
	}
	return ledger.Curve{}, false
}

// Events returns the run's retained journal tail (oldest first).
func (s *Sink) Events(id string) ([]ledger.Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.runs {
		if r.id == id {
			return append([]ledger.Entry(nil), r.events...), true
		}
	}
	return nil, false
}

// progress derives the served view from the tracking record. Callers
// hold the sink lock.
func (r *runState) progress() RunProgress {
	done, total := r.curve.Done(), r.curve.Total()
	p := RunProgress{
		ID:         r.id,
		Phase:      r.phase,
		Done:       done,
		Total:      total,
		Started:    r.started,
		Updated:    r.updated,
		Detected:   int64(r.curve.Detected()),
		Terminal:   r.curve.Terminal() || (total > 0 && done >= total),
		Rehydrated: r.rehydrated,
		ETAMS:      -1,
	}
	if total > 0 {
		p.Percent = 100 * float64(done) / float64(total)
	}
	if done > 0 {
		p.CoveragePercent = 100 * float64(p.Detected) / float64(done)
	}
	elapsed := r.updated.Sub(r.started)
	if elapsed > 0 {
		p.ElapsedMS = elapsed.Milliseconds()
	}
	switch {
	case p.Terminal:
		p.ETAMS = 0
	case done > 0 && elapsed > 0 && total > done:
		perItem := float64(elapsed) / float64(done)
		p.ETAMS = time.Duration(perItem * float64(total-done)).Milliseconds()
	}
	return p
}
