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

// obsFaultSimHist is the per-fault latency histogram, only touched when
// the obs layer is enabled. Live done/detected counts are not metrics:
// /runs/{id} derives them from the campaign's fault events.
var obsFaultSimHist = obs.NewTimingHistogram("fault_simulation_seconds")

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
func (r *SimResult) NumDetected() int { return countTrue(r.Detected) }

// ClassifyResult is the outcome of a criticality-labelling campaign.
type ClassifyResult struct {
	Critical []bool // parallel to the fault list
	Elapsed  time.Duration
	// LayerSteps / FullLayerSteps mirror SimResult's work counters.
	LayerSteps     int64
	FullLayerSteps int64
}

func countTrue(flags []bool) int {
	n := 0
	for _, f := range flags {
		if f {
			n++
		}
	}
	return n
}

// progressReporter calls the CampaignOptions.Progress callback every
// stride completions. tick runs on worker goroutines outside every
// campaign lock; finish — called after the workers join — guarantees
// exactly one terminal done == total call, even when the fault list is
// empty or total is not a stride multiple.
type progressReporter struct {
	done     atomic.Int64
	terminal atomic.Bool
	total    int
	stride   int64
	fn       func(done int)
}

// tick records one completed fault.
func (r *progressReporter) tick() {
	if r.fn == nil {
		return
	}
	d := r.done.Add(1)
	if d%r.stride != 0 && int(d) != r.total {
		return
	}
	if int(d) == r.total && !r.terminal.CompareAndSwap(false, true) {
		return
	}
	r.fn(int(d))
}

// finish makes the terminal call unless a tick already did.
func (r *progressReporter) finish() {
	if r.fn == nil || r.terminal.Swap(true) {
		return
	}
	r.fn(r.total)
}

// campaign is what one kind of fault campaign hands runCampaign:
// everything in which Simulate and Classify differ.
type campaign struct {
	// name is the span name, the run id prefix and the event name.
	name string
	// stride is the Progress callback stride.
	stride int
	// hitKey names the hit count in the run_end and span attributes
	// ("detected" or "critical"); faultCounter and hitCounter count the
	// campaign's faults and hits.
	hitKey                   string
	faultCounter, hitCounter *obs.Counter
	// setup builds the golden reference inside the campaign span. It
	// returns the run metadata (run_start and span attributes) and the
	// layer-steps a full re-simulation of one fault costs.
	setup func() (meta map[string]any, fullPerFault int64)
	// simulate runs one fault on a worker's injector. runCampaign fills
	// in the outcome's Index, Kind and Layer.
	simulate func(inj *Injector, f Fault) obs.FaultOutcome
}

// runCampaign is the one campaign loop. It opens the campaign span,
// runs c.setup, and — with the obs layer on — mints a run id, labels
// the workers' CPU samples with it and brackets the campaign with
// run_start/run_end. Then it runs every fault through c.simulate on the
// worker pool, recording per fault its latency, its fault event and a
// Progress tick, and finally adds the campaign's counters and span
// attributes. It returns the per-fault hit flags and the layer-steps
// simulated and those a full re-simulation would have cost.
func runCampaign(golden *snn.Network, faults []Fault, opts CampaignOptions, c campaign) (hits []bool, layerSteps, fullLayerSteps int64) {
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, sp := obs.Start(ctx, c.name)
	defer sp.End()
	sp.SetAttr("faults", len(faults))
	meta, fullPerFault := c.setup()
	for k, v := range meta {
		sp.SetAttr(k, v)
	}
	run := ""
	if obs.On() {
		run = obs.NewRunID(c.name)
		obs.EmitRunStart(run, c.name, len(faults), meta)
		// Tag this goroutine's CPU samples with the run id; the fault
		// workers spawned below inherit the goroutine label set.
		obs.WithRunLabel(ctx, run)
	}
	hits = make([]bool, len(faults))
	rep := &progressReporter{total: len(faults), stride: int64(c.stride), fn: opts.Progress}
	var steps atomic.Int64
	newInjector := func() *Injector { return NewInjector(golden) }
	pool.RunWith(opts.Workers, len(faults), newInjector, func(inj *Injector, i int) {
		f := faults[i]
		var t0 time.Time
		if run != "" {
			t0 = time.Now()
		}
		out := c.simulate(inj, f)
		hits[i] = out.Detected
		steps.Add(int64(out.LayerSteps))
		if run != "" {
			obsFaultSimHist.Observe(time.Since(t0))
			out.Index, out.Kind, out.Layer = i, f.Kind.String(), f.Layer
			obs.EmitFault(run, c.name, out)
		}
		rep.tick()
	})
	rep.finish()
	layerSteps, fullLayerSteps = steps.Load(), int64(len(faults))*fullPerFault
	if run != "" {
		n := countTrue(hits)
		obs.EmitRunEnd(run, c.name, len(faults), len(faults), map[string]any{
			c.hitKey:      n,
			"layer_steps": layerSteps,
		})
		c.faultCounter.Add(int64(len(faults)))
		c.hitCounter.Add(int64(n))
		obsCampaignLayerSteps.Add(layerSteps)
		obsCampaignFullSteps.Add(fullLayerSteps)
		sp.SetAttr(c.hitKey, n)
		sp.SetAttr("layer_steps", layerSteps)
	}
	return hits, layerSteps, fullLayerSteps
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
	var goldenRec *snn.Record
	var goldenOut *tensor.Tensor
	detected, layerSteps, fullLayerSteps := runCampaign(golden, faults, opts, campaign{
		name: "campaign/simulate", stride: 256,
		hitKey: "detected", faultCounter: obsFaultsSimulated, hitCounter: obsFaultsDetected,
		setup: func() (map[string]any, int64) {
			goldenRec = golden.Run(stimulus)
			goldenOut = goldenRec.Output()
			return map[string]any{"steps": steps, "layers": len(golden.Layers)},
				int64(len(golden.Layers)) * int64(steps)
		},
		simulate: func(inj *Injector, f Fault) obs.FaultOutcome {
			revert := inj.Apply(f)
			defer revert()
			sc := inj.Scratch()
			if opts.FullResim {
				rec, n := sc.RunFrom(0, nil, stimulus)
				div := firstDivergence(rec.Output(), goldenOut, steps)
				return obs.FaultOutcome{Detected: div >= 0, DivStep: div, SimSteps: steps, LayerSteps: n}
			}
			detected, n := sc.DivergesFrom(f.StartLayer(), goldenRec, stimulus)
			out := obs.FaultOutcome{Detected: detected, DivStep: -1, SimSteps: sc.LastSimSteps(), LayerSteps: n}
			if detected {
				// Early exit happens on the divergent step, so the last
				// simulated step is the first divergence.
				out.DivStep = out.SimSteps - 1
			}
			return out
		},
	})
	return &SimResult{
		Detected:       detected,
		Elapsed:        time.Since(start),
		LayerSteps:     layerSteps,
		FullLayerSteps: fullLayerSteps,
	}, nil
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
	goldenRecs := make([]*snn.Record, len(samples))
	goldenPred := make([]int, len(samples))
	critical, layerSteps, fullLayerSteps := runCampaign(golden, faults, opts, campaign{
		name: "campaign/classify", stride: 64,
		hitKey: "critical", faultCounter: obsFaultsClassified, hitCounter: obsFaultsCritical,
		setup: func() (map[string]any, int64) {
			var fullPerFault int64
			for i, s := range samples {
				goldenRecs[i] = golden.Run(s)
				goldenPred[i] = tensor.ArgMax(goldenRecs[i].OutputCounts())
				fullPerFault += int64(len(golden.Layers)) * int64(goldenRecs[i].Steps)
			}
			return map[string]any{"samples": len(samples), "layers": len(golden.Layers)}, fullPerFault
		},
		simulate: func(inj *Injector, f Fault) obs.FaultOutcome {
			startLayer := f.StartLayer()
			if opts.FullResim {
				startLayer = 0
			}
			revert := inj.Apply(f)
			defer revert()
			// Criticality has no single first-divergence timestep (it
			// spans samples); DivStep stays -1 and the curve folds these
			// detections into its final point.
			out := obs.FaultOutcome{DivStep: -1}
			for si, s := range samples {
				var replay *snn.Record
				if startLayer > 0 {
					replay = goldenRecs[si]
				}
				rec, n := inj.Scratch().RunFrom(startLayer, replay, s)
				out.LayerSteps += n
				if tensor.ArgMax(rec.OutputCounts()) != goldenPred[si] {
					out.Detected = true
					break
				}
			}
			return out
		},
	})
	return &ClassifyResult{
		Critical:       critical,
		Elapsed:        time.Since(start),
		LayerSteps:     layerSteps,
		FullLayerSteps: fullLayerSteps,
	}, nil
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
