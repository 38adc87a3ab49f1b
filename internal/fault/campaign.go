package fault

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/repro/snntest/internal/obs"
	"github.com/repro/snntest/internal/pool"
	"github.com/repro/snntest/internal/snn"
	"github.com/repro/snntest/internal/tensor"
)

// CampaignOptions tunes a fault-simulation campaign.
type CampaignOptions struct {
	// Workers is the campaign worker count; ≤ 0 uses GOMAXPROCS.
	Workers int
	// Progress, when non-nil, is called periodically with the number of
	// completed faults. It runs outside every campaign lock and — with
	// more than one worker — possibly from several goroutines at once,
	// so it must be safe for concurrent use. The terminal done == total
	// call is guaranteed, exactly once, even for an empty fault list.
	Progress func(done int)
	// FullResim disables golden-trace replay and early exit, re-running
	// the whole network from layer 0 over the full duration for every
	// fault. It exists as the reference path: results are identical to
	// the incremental default, only slower.
	FullResim bool
	// Context, when non-nil, parents the campaign's obs span so traces
	// nest under the caller's tree. It is observability-only: campaigns
	// do not watch it for cancellation.
	Context context.Context
}

// Campaign-level counters, updated once per campaign (not per fault) so
// the disabled obs layer costs nothing on the fault hot path.
var (
	obsCampaignLayerSteps = obs.NewCounter("fault_layer_steps_total")
	obsCampaignFullSteps  = obs.NewCounter("fault_full_layer_steps_total")
	obsFaultsSimulated    = obs.NewCounter("fault_simulated_total")
	obsFaultsDetected     = obs.NewCounter("fault_detected_total")
	obsFaultsClassified   = obs.NewCounter("fault_classified_total")
	obsFaultsCritical     = obs.NewCounter("fault_critical_total")
)

// Live-campaign gauges and latency histogram, only touched when the obs
// layer is enabled (the telemetry server's /metrics and /runs views).
// done/total track the progress-reporter stride; detected/critical are
// bumped per hit so coverage-so-far is exact. Pool size and utilization
// come from internal/pool.
var (
	obsCampaignDone     = obs.NewGauge("fault_campaign_done_faults")
	obsCampaignTotal    = obs.NewGauge("fault_campaign_total_faults")
	obsCampaignDetected = obs.NewGauge("fault_campaign_detected_faults")
	obsCampaignCritical = obs.NewGauge("fault_campaign_critical_faults")
	obsFaultSimHist     = obs.NewTimingHistogram("fault_simulation_seconds")
)

// SimResult is the outcome of one fault-simulation campaign against a
// test stimulus.
type SimResult struct {
	Detected []bool // parallel to the fault list
	Elapsed  time.Duration
	// LayerSteps counts the (layer, time-step) simulation units actually
	// executed across the campaign; FullLayerSteps is what a full
	// re-simulation of every fault would have executed. Their ratio is
	// the incremental campaign's work saving.
	LayerSteps     int64
	FullLayerSteps int64
}

// NumDetected counts detected faults.
func (r *SimResult) NumDetected() int {
	n := 0
	for _, d := range r.Detected {
		if d {
			n++
		}
	}
	return n
}

// ClassifyResult is the outcome of a criticality-labelling campaign.
type ClassifyResult struct {
	Critical []bool // parallel to the fault list
	Elapsed  time.Duration
	// LayerSteps / FullLayerSteps mirror SimResult's work counters.
	LayerSteps     int64
	FullLayerSteps int64
}

// progressSink receives campaign completion updates. The user callback
// and the obs trace stream are both sinks of the same reporter, so they
// see identical update sequences.
type progressSink interface {
	report(done, total int)
}

// callbackSink adapts a CampaignOptions.Progress func.
type callbackSink struct{ fn func(done int) }

func (s callbackSink) report(done, _ int) { s.fn(done) }

// obsSink forwards updates to the obs layer as progress events,
// run-correlated when the campaign minted a flight-recorder run id.
type obsSink struct{ name, run string }

func (s obsSink) report(done, total int) { obs.ProgressRun(s.run, s.name, done, total) }

// progressReporter fans completion counts out to its sinks every stride
// completions. tick runs on worker goroutines outside every campaign
// lock; finish — called after the workers join — guarantees exactly one
// terminal done == total report, even when the fault list is empty or
// total is not a stride multiple.
type progressReporter struct {
	done     atomic.Int64
	terminal atomic.Bool
	total    int
	stride   int64
	sinks    []progressSink
}

func newProgressReporter(total, stride int, opts CampaignOptions, name, run string) *progressReporter {
	r := &progressReporter{total: total, stride: int64(stride)}
	if opts.Progress != nil {
		r.sinks = append(r.sinks, callbackSink{opts.Progress})
	}
	if obs.On() {
		r.sinks = append(r.sinks, obsSink{name: name, run: run})
	}
	return r
}

// tick records one completed fault.
func (r *progressReporter) tick() {
	if len(r.sinks) == 0 {
		return
	}
	d := r.done.Add(1)
	if d%r.stride != 0 && int(d) != r.total {
		return
	}
	if int(d) == r.total && !r.terminal.CompareAndSwap(false, true) {
		return
	}
	r.emit(int(d))
}

// finish emits the terminal report unless a tick already did.
func (r *progressReporter) finish() {
	if len(r.sinks) == 0 || r.terminal.Swap(true) {
		return
	}
	r.emit(r.total)
}

func (r *progressReporter) emit(done int) {
	if obs.On() {
		// Gauges first, so a /runs snapshot triggered by the progress
		// event below already sees the matching done count.
		obsCampaignDone.Set(int64(done))
		obsCampaignTotal.Set(int64(r.total))
	}
	for _, s := range r.sinks {
		s.report(done, r.total)
	}
}

// span opens the campaign's obs span under the options' context and
// returns the derived context so run-labelled profiling can compose with
// it (see obs.WithRunLabel).
func (opts CampaignOptions) span(name string) (context.Context, *obs.Span) {
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	return obs.Start(ctx, name)
}

// Simulate runs the fault-simulation campaign: each fault is injected in
// turn and the network is simulated on the stimulus; the fault is
// detected if the output spike trains differ from the golden response in
// L1 (Eq. 3). workers ≤ 0 uses GOMAXPROCS. progress, when non-nil, is
// called periodically with the number of completed faults (see
// CampaignOptions.Progress for its concurrency contract).
//
// The campaign is incremental: a fault at layer ℓ cannot perturb layers
// below ℓ, so simulation replays the golden record up to the fault site
// and re-simulates only layers ≥ ℓ, stopping at the first time step whose
// output row diverges from the golden response. Detection flags are
// identical to a full re-simulation of every fault.
func Simulate(golden *snn.Network, faults []Fault, stimulus *tensor.Tensor, workers int, progress func(done int)) (*SimResult, error) {
	return SimulateWith(golden, faults, stimulus, CampaignOptions{Workers: workers, Progress: progress})
}

// SimulateWith is Simulate with explicit campaign options.
func SimulateWith(golden *snn.Network, faults []Fault, stimulus *tensor.Tensor, opts CampaignOptions) (*SimResult, error) {
	start := time.Now()
	steps, err := golden.CheckInput(stimulus)
	if err != nil {
		return nil, fmt.Errorf("fault: Simulate: %w", err)
	}
	if err := Validate(golden, faults); err != nil {
		return nil, err
	}
	ctx, sp := opts.span("campaign/simulate")
	defer sp.End()
	sp.SetAttr("faults", len(faults))
	goldenRec := golden.Run(stimulus)
	goldenOut := goldenRec.Output()
	fullPerFault := int64(len(golden.Layers)) * int64(steps)
	res := &SimResult{
		Detected:       make([]bool, len(faults)),
		FullLayerSteps: int64(len(faults)) * fullPerFault,
	}
	run := ""
	if obs.RunEventsOn() {
		run = obs.NewRunID("campaign/simulate")
		obs.EmitRunStart(run, "campaign/simulate", len(faults), map[string]any{
			"steps":  steps,
			"layers": len(golden.Layers),
		})
		// Tag this goroutine's CPU samples with the run id; the fault
		// workers spawned below inherit the goroutine label set.
		ctx = obs.WithRunLabel(ctx, run)
	}
	rep := newProgressReporter(len(faults), 256, opts, "campaign/simulate", run)
	if obs.On() {
		obsCampaignDone.Set(0)
		obsCampaignTotal.Set(int64(len(faults)))
		obsCampaignDetected.Set(0)
	}
	var layerSteps atomic.Int64
	newInjector := func() *Injector { return NewInjector(golden) }
	pool.RunWith(opts.Workers, len(faults), newInjector, func(inj *Injector, i int) {
		f := faults[i]
		on := obs.On()
		var t0 time.Time
		if on {
			t0 = time.Now()
		}
		revert := inj.Apply(f)
		var detected bool
		var ls int
		divStep, simSteps := -1, steps
		if opts.FullResim {
			rec, n := inj.Scratch().RunFrom(0, nil, stimulus)
			detected, ls = tensor.L1Diff(goldenOut, rec.Output()) > 0, n
			if detected && run != "" {
				divStep = firstDivergence(rec.Output(), goldenOut, steps)
			}
		} else {
			detected, ls = inj.Scratch().DivergesFrom(f.StartLayer(), goldenRec, stimulus)
			simSteps = inj.Scratch().LastSimSteps()
			if detected {
				// Early exit happens on the divergent step, so the last
				// simulated step is the first divergence.
				divStep = simSteps - 1
			}
		}
		revert()
		res.Detected[i] = detected
		layerSteps.Add(int64(ls))
		if on {
			if detected {
				obsCampaignDetected.Add(1)
			}
			obsFaultSimHist.Observe(time.Since(t0))
		}
		if run != "" {
			obs.EmitFault(run, "campaign/simulate", obs.FaultOutcome{
				Index:      i,
				Kind:       f.Kind.String(),
				Layer:      f.Layer,
				Detected:   detected,
				DivStep:    divStep,
				SimSteps:   simSteps,
				LayerSteps: ls,
			})
		}
		rep.tick()
	})
	rep.finish()
	res.LayerSteps = layerSteps.Load()
	res.Elapsed = time.Since(start)
	if run != "" {
		obs.EmitRunEnd(run, "campaign/simulate", len(faults), len(faults), map[string]any{
			"detected":    res.NumDetected(),
			"layer_steps": res.LayerSteps,
		})
	}
	if obs.On() {
		obsFaultsSimulated.Add(int64(len(faults)))
		obsFaultsDetected.Add(int64(res.NumDetected()))
		obsCampaignLayerSteps.Add(res.LayerSteps)
		obsCampaignFullSteps.Add(res.FullLayerSteps)
		sp.SetAttr("detected", res.NumDetected())
		sp.SetAttr("layer_steps", res.LayerSteps)
	}
	return res, nil
}

// firstDivergence returns the first timestep whose out row differs from
// the golden output, or -1 when the trains are identical. The FullResim
// reference path re-derives here what DivergesFrom's early exit yields
// for free on the incremental path.
func firstDivergence(out, golden *tensor.Tensor, steps int) int {
	for t := 0; t < steps; t++ {
		if !tensor.RowEqual(out, golden, t) {
			return t
		}
	}
	return -1
}

// Classify labels each fault critical (true) or benign (false): a fault
// is critical when it flips the top-1 prediction of at least one of the
// labelled evaluation stimuli (the paper's criterion). This is the
// expensive full-dataset campaign of Table II; like Simulate it starts
// each faulty simulation at the fault site by golden-trace replay.
func Classify(golden *snn.Network, faults []Fault, samples []*tensor.Tensor, workers int, progress func(done int)) ([]bool, error) {
	res, err := ClassifyWith(golden, faults, samples, CampaignOptions{Workers: workers, Progress: progress})
	if err != nil {
		return nil, err
	}
	return res.Critical, nil
}

// ClassifyWith is Classify with explicit campaign options. The golden
// network is simulated once per sample and the per-layer spike records
// are kept for replay, so memory grows with samples × total neurons ×
// steps; the per-fault cost drops from a full-network run per sample to
// the layers at and above the fault site.
func ClassifyWith(golden *snn.Network, faults []Fault, samples []*tensor.Tensor, opts CampaignOptions) (*ClassifyResult, error) {
	start := time.Now()
	for si, s := range samples {
		if _, err := golden.CheckInput(s); err != nil {
			return nil, fmt.Errorf("fault: Classify: sample %d: %w", si, err)
		}
	}
	if err := Validate(golden, faults); err != nil {
		return nil, err
	}
	ctx, sp := opts.span("campaign/classify")
	defer sp.End()
	sp.SetAttr("faults", len(faults))
	sp.SetAttr("samples", len(samples))
	goldenRecs := make([]*snn.Record, len(samples))
	goldenPred := make([]int, len(samples))
	var fullPerFault int64
	for i, s := range samples {
		goldenRecs[i] = golden.Run(s)
		goldenPred[i] = tensor.ArgMax(goldenRecs[i].OutputCounts())
		fullPerFault += int64(len(golden.Layers)) * int64(goldenRecs[i].Steps)
	}
	res := &ClassifyResult{
		Critical:       make([]bool, len(faults)),
		FullLayerSteps: int64(len(faults)) * fullPerFault,
	}
	run := ""
	if obs.RunEventsOn() {
		run = obs.NewRunID("campaign/classify")
		obs.EmitRunStart(run, "campaign/classify", len(faults), map[string]any{
			"samples": len(samples),
			"layers":  len(golden.Layers),
		})
		// Tag this goroutine's CPU samples with the run id; the fault
		// workers spawned below inherit the goroutine label set.
		ctx = obs.WithRunLabel(ctx, run)
	}
	rep := newProgressReporter(len(faults), 64, opts, "campaign/classify", run)
	if obs.On() {
		obsCampaignDone.Set(0)
		obsCampaignTotal.Set(int64(len(faults)))
		obsCampaignCritical.Set(0)
	}
	var layerSteps atomic.Int64
	newInjector := func() *Injector { return NewInjector(golden) }
	pool.RunWith(opts.Workers, len(faults), newInjector, func(inj *Injector, i int) {
		f := faults[i]
		on := obs.On()
		var t0 time.Time
		if on {
			t0 = time.Now()
		}
		startLayer := f.StartLayer()
		if opts.FullResim {
			startLayer = 0
		}
		revert := inj.Apply(f)
		ls := 0
		for si, s := range samples {
			var rec *snn.Record
			var n int
			if startLayer == 0 {
				rec, n = inj.Scratch().RunFrom(0, nil, s)
			} else {
				rec, n = inj.Scratch().RunFrom(startLayer, goldenRecs[si], s)
			}
			ls += n
			if tensor.ArgMax(rec.OutputCounts()) != goldenPred[si] {
				res.Critical[i] = true
				break
			}
		}
		revert()
		layerSteps.Add(int64(ls))
		if on {
			if res.Critical[i] {
				obsCampaignCritical.Add(1)
			}
			obsFaultSimHist.Observe(time.Since(t0))
		}
		if run != "" {
			// Criticality has no single first-divergence timestep (it spans
			// samples); DivStep stays -1 and the curve folds these
			// detections into its final point.
			obs.EmitFault(run, "campaign/classify", obs.FaultOutcome{
				Index:      i,
				Kind:       f.Kind.String(),
				Layer:      f.Layer,
				Detected:   res.Critical[i],
				DivStep:    -1,
				LayerSteps: ls,
			})
		}
		rep.tick()
	})
	rep.finish()
	res.LayerSteps = layerSteps.Load()
	res.Elapsed = time.Since(start)
	if run != "" {
		critical := 0
		for _, c := range res.Critical {
			if c {
				critical++
			}
		}
		obs.EmitRunEnd(run, "campaign/classify", len(faults), len(faults), map[string]any{
			"critical":    critical,
			"layer_steps": res.LayerSteps,
		})
	}
	if obs.On() {
		critical := 0
		for _, c := range res.Critical {
			if c {
				critical++
			}
		}
		obsFaultsClassified.Add(int64(len(faults)))
		obsFaultsCritical.Add(int64(critical))
		obsCampaignLayerSteps.Add(res.LayerSteps)
		obsCampaignFullSteps.Add(res.FullLayerSteps)
		sp.SetAttr("critical", critical)
		sp.SetAttr("layer_steps", res.LayerSteps)
	}
	return res, nil
}

// AccuracyDrop returns how much the network's top-1 accuracy on the
// labelled samples drops when the fault is present (positive = worse than
// golden). It quantifies the worst-case effect of a test escape
// (Table III, last row).
func AccuracyDrop(golden *snn.Network, f Fault, samples []*tensor.Tensor, labels []int) float64 {
	correctGolden, correctFaulty := 0, 0
	inj := NewInjector(golden)
	revert := inj.Apply(f)
	defer revert()
	for i, s := range samples {
		goldenRec := golden.Run(s)
		if tensor.ArgMax(goldenRec.OutputCounts()) == labels[i] {
			correctGolden++
		}
		rec, _ := inj.Scratch().RunFrom(f.StartLayer(), goldenRec, s)
		if tensor.ArgMax(rec.OutputCounts()) == labels[i] {
			correctFaulty++
		}
	}
	return float64(correctGolden-correctFaulty) / float64(len(samples))
}

// MaxEscapeDrop returns the maximum accuracy drop over the undetected
// critical faults, split into neuron and synapse classes.
func MaxEscapeDrop(golden *snn.Network, faults []Fault, detected, critical []bool, samples []*tensor.Tensor, labels []int) (neuron, synapse float64) {
	for i, f := range faults {
		if detected[i] || !critical[i] {
			continue
		}
		drop := AccuracyDrop(golden, f, samples, labels)
		if f.Kind.IsNeuron() {
			if drop > neuron {
				neuron = drop
			}
		} else if drop > synapse {
			synapse = drop
		}
	}
	return neuron, synapse
}
