package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"

	"github.com/repro/snntest/internal/core"
	"github.com/repro/snntest/internal/dataset"
	"github.com/repro/snntest/internal/fault"
	snnmetrics "github.com/repro/snntest/internal/metrics"
	"github.com/repro/snntest/internal/obs"
	"github.com/repro/snntest/internal/snn"
	"github.com/repro/snntest/internal/tensor"
	"github.com/repro/snntest/internal/train"
)

// cliSeed is the CLIs' default -seed. The network, its data and the
// generator RNG always use it: across model seeds the generation work
// itself differs several-fold (README.md), which would swamp every
// timing. The workload seed permutes the order in which the campaigns
// receive the faults and the test samples instead; every result is
// order-independent, so each run must reproduce the default-flag CLI run
// exactly.
const cliSeed = 1

// bench runs one workload and owns its spans.
type bench struct {
	w    workload
	seed int64
	log  io.Writer
	t    *tracer
}

// fixture is the set-up half of the CLIs' run(): the trained network and
// the test split, in the workload seed's order.
type fixture struct {
	net         *snn.Network
	sampleSteps int
	testIn      []*tensor.Tensor
	testLabels  []int
}

// generatorConfig is cmd/snntestgen's generator configuration below full
// scale with its default flags.
func generatorConfig() core.Config {
	cfg := core.TestConfig()
	cfg.Steps1 = 100
	cfg.Seed = cliSeed + 3
	cfg.Parallel = core.Parallel{Restarts: 1}
	return cfg
}

// setup builds and trains the model of benchmark bn exactly like the CLIs
// do and shuffles the test split with the workload seed. It records
// setup_s, snn.build_s, dataset.gen_s, train.s and train.alloc_mb in v.
func (b *bench) setup(bn, run string, parent int, v map[string]float64) (*fixture, error) {
	fx := &fixture{}
	root := b.t.start(run, "setup", parent)
	defer func() { v["setup_s"] = b.t.end(root) }()
	var err error
	v["snn.build_s"], err = b.t.timed(run, "snn.Build", root, func() error {
		fx.net, err = snn.Build(bn, rand.New(rand.NewSource(cliSeed)), snn.ScaleTiny)
		return err
	})
	if err != nil {
		return nil, err
	}
	if fx.sampleSteps, err = snn.SampleSteps(bn, snn.ScaleTiny); err != nil {
		return nil, err
	}
	var ds *dataset.Dataset
	v["dataset.gen_s"], err = b.t.timed(run, "dataset.ForBenchmark", root, func() error {
		ds, err = dataset.ForBenchmark(fx.net, dataset.Config{
			TrainPerClass: 4, TestPerClass: 2, Steps: fx.sampleSteps, Seed: cliSeed + 1,
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	trainIn, trainLab := ds.Inputs("train")
	a0 := allocBytes()
	v["train.s"], err = b.t.timed(run, "train.Train", root, func() error {
		_, err := train.Train(fx.net, trainIn, trainLab, train.Config{Epochs: 4, LR: 0.03, Seed: cliSeed + 2})
		return err
	})
	v["train.alloc_mb"] = mb(allocBytes() - a0)
	if err != nil {
		return nil, err
	}
	testIn, testLabels := ds.Inputs("test")
	for _, i := range rand.New(rand.NewSource(b.seed)).Perm(len(testIn)) {
		fx.testIn, fx.testLabels = append(fx.testIn, testIn[i]), append(fx.testLabels, testLabels[i])
	}
	return fx, nil
}

// iteration is one in-process run of the CLI pipeline.
type iteration struct {
	traced bool
	err    error
	v      map[string]float64 // measured values by metric name
	out    outcome
	cli    map[string][]string // per command, the lines it prints that do not depend on wall time

	// Kept for the checks that run after the timed region.
	fx       *fixture
	res      *core.Result
	faults   []fault.Fault // the universe in the workload seed's order
	order    []int         // faults[k] is universe[order[k]]
	detected []bool        // parallel to faults
	critical []bool
}

// iterate runs the pipeline once, traced or not, and checks its outputs.
func (b *bench) iterate(idx int, traced bool) *iteration {
	it := &iteration{traced: traced, v: make(map[string]float64)}
	run := fmt.Sprintf("it%d", idx)
	var rec obs.Recorder
	if traced {
		run += "-traced"
		obs.ResetCounters()
		obs.SetSinks(&rec)
		obs.Enable()
	}
	it.err = resetPeakRSS()
	cpu0, gc0 := cpuSeconds(), gcCPUSeconds()
	root := b.t.start(run, "pipeline", 0)
	if it.err == nil {
		it.err = b.pipeline(it, run, root)
	}
	it.v["total_s"] = b.t.end(root)
	if it.err == nil {
		it.v["peak_mem_mb"], it.err = peakRSSMB()
	}
	it.v["cpu_s"] = cpuSeconds() - cpu0
	it.v["runtime.gc_cpu_frac"] = (gcCPUSeconds() - gc0) / it.v["cpu_s"]
	if traced {
		obs.Disable()
		obs.SetSinks()
		b.t.program[run] = rec.Spans()
		b.attribute(it, b.t.program[run])
	}
	if it.err == nil {
		it.err = checkIteration(it)
	}
	if it.err == nil {
		it.v["train.accuracy_pct"] = 100 * train.Evaluate(it.fx.net, it.fx.testIn, it.fx.testLabels)
	}
	return it
}

// pipeline is cmd/snntestgen's run() with default flags: set-up,
// generation, the criticality campaign on the test split (cmd/faultsim's
// whole campaign), the verification campaign and the coverage tally.
func (b *bench) pipeline(it *iteration, run string, root int) error {
	v := it.v
	fx, err := b.setup(b.w.bench, run, root, v)
	if err != nil {
		return err
	}
	it.fx = fx
	if it.res, err = b.generate(run, root, fx, v); err != nil {
		return err
	}
	res := it.res
	var universe []fault.Fault
	sampleS, _ := b.t.timed(run, "fault.SampleUniverse", root, func() error {
		universe = fault.SampleUniverse(fx.net, fault.DefaultOptions(), 1)
		return nil
	})
	it.order = rand.New(rand.NewSource(b.seed + 1)).Perm(len(universe))
	it.faults = make([]fault.Fault, len(universe))
	for k, i := range it.order {
		it.faults[k] = universe[i]
	}
	cls, sim, err := b.campaign(run, root, fx, it.faults, res.Stimulus, v)
	if err != nil {
		return err
	}
	var cov fault.Coverage
	computeS, err := b.t.timed(run, "fault.Compute", root, func() error {
		cov, err = fault.Compute(it.faults, sim.Detected, cls.Critical)
		return err
	})
	if err != nil {
		return err
	}
	it.detected, it.critical = sim.Detected, cls.Critical

	v["fault.other_s"] = sampleS + computeS
	v["fault.critical_faults"] = float64(count(cls.Critical))
	v["fault.detected_faults"] = float64(sim.NumDetected())
	v["test_steps"] = float64(res.TotalSteps())
	v["fc_critical_pct"] = 100 * cov.CriticalFC()
	v["core.t_in_min_steps"] = float64(res.TInMin)
	v["core.activated_pct"] = 100 * res.ActivatedFraction

	it.out = newOutcome(res, it.order, sim.Detected, cls.Critical, v["fc_critical_pct"])
	it.cli = cliLines(fx, res, cov)
	return nil
}

// generate times core.GenerateContext with cmd/snntestgen's configuration
// and records generate_s and core.generate.alloc_mb in v.
func (b *bench) generate(run string, parent int, fx *fixture, v map[string]float64) (*core.Result, error) {
	var res *core.Result
	var err error
	a0 := allocBytes()
	v["generate_s"], err = b.t.timed(run, "core.GenerateContext", parent, func() error {
		res, err = core.GenerateContext(context.Background(), fx.net, generatorConfig())
		return err
	})
	v["core.generate.alloc_mb"] = mb(allocBytes() - a0)
	return res, err
}

// campaign times the criticality campaign on the test split and the
// verification campaign on the stimulus, with the CLIs' default options,
// and records the campaign metrics in v.
func (b *bench) campaign(run string, parent int, fx *fixture, faults []fault.Fault, stim *tensor.Tensor, v map[string]float64) (*fault.ClassifyResult, *fault.SimResult, error) {
	var cls *fault.ClassifyResult
	var err error
	a0, cpu0 := allocBytes(), cpuSeconds()
	v["fault.classify_s"], err = b.t.timed(run, "fault.ClassifyWith", parent, func() error {
		cls, err = fault.ClassifyWith(fx.net, faults, fx.testIn, fault.CampaignOptions{})
		return err
	})
	classifyCPU := cpuSeconds() - cpu0
	v["fault.classify.alloc_mb"] = mb(allocBytes() - a0)
	if err != nil {
		return nil, nil, err
	}
	var sim *fault.SimResult
	v["fault.simulate_s"], err = b.t.timed(run, "fault.SimulateWith", parent, func() error {
		sim, err = fault.SimulateWith(fx.net, faults, stim, fault.CampaignOptions{})
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	workers := min(runtime.GOMAXPROCS(0), len(faults))
	v["campaign_s"] = v["fault.classify_s"] + v["fault.simulate_s"]
	v["faults_per_s"] = float64(len(faults)) / v["fault.classify_s"]
	v["fault.classify.layer_steps"] = float64(cls.LayerSteps)
	v["fault.classify.replay_x"] = float64(cls.FullLayerSteps) / float64(cls.LayerSteps)
	v["fault.simulate.replay_x"] = float64(sim.FullLayerSteps) / float64(sim.LayerSteps)
	v["fault.classify.cpu_ns_per_layer_step"] = classifyCPU * 1e9 / float64(cls.LayerSteps)
	v["fault.classify.pool_busy_frac"] = classifyCPU / (v["fault.classify_s"] * float64(workers))
	return cls, sim, nil
}

// attribute reads a traced iteration's program counters, splits its
// generation time by the program's own spans and derives the per-layer
// time attribution, which sums to traced_total_s.
func (b *bench) attribute(it *iteration, events []obs.Event) {
	v := it.v
	counters := obs.Snapshot()
	v["core.iterations"] = float64(counters["core_iterations_total"])
	v["core.growths"] = float64(counters["core_growths_total"])
	v["core.calibrate_s"] = selfSeconds(events, "generate/calibrate")
	v["core.restart_s"] = selfSeconds(events, "generate/restart")
	v["core.stage2_s"] = selfSeconds(events, "generate/stage2")
	v["core.other_s"] = v["generate_s"] - v["core.calibrate_s"] - v["core.restart_s"] - v["core.stage2_s"]
	v["traced_total_s"] = v["total_s"]
	v["unattributed_s"] = v["total_s"]
	for _, name := range []string{"snn.build_s", "dataset.gen_s", "train.s", "core.calibrate_s",
		"core.restart_s", "core.stage2_s", "core.other_s", "fault.classify_s", "fault.simulate_s", "fault.other_s"} {
		v["unattributed_s"] -= v[name]
	}
	if it.res != nil {
		v["core.graph_step_us"] = (v["core.restart_s"] + v["core.stage2_s"]) * 1e6 /
			float64(graphWork(it.res, generatorConfig()))
	}
}

// graphWork counts optimised timesteps × optimizer steps of a generation
// run: per chunk, one stage-1 pass of Steps1 steps at every duration the
// growth loop tried (T_in,min, then +β, +2β, … per growth) and one
// stage-2 pass of Steps1/2 steps at the final duration.
func graphWork(res *core.Result, cfg core.Config) int {
	work := 0
	for _, st := range res.Trace {
		dur, beta := res.TInMin, cfg.Beta
		for g := 0; g <= st.Growths; g++ {
			work += cfg.Steps1 * dur
			dur += beta
			beta *= 2
		}
		work += cfg.Steps1 / 2 * st.ChunkSteps
	}
	return work
}

// cliLines renders, per command, the result lines cmd/snntestgen and
// cmd/faultsim print, with the commands' own format strings. faultsim's
// layer-step line is left out: classify's early exits, and so its
// layer-steps, depend on the test samples' order, which the workload seed
// permutes.
func cliLines(fx *fixture, res *core.Result, cov fault.Coverage) map[string][]string {
	sum := snnmetrics.SummarizeGeneration(res.Trace)
	return map[string][]string{"snntestgen": {
		fmt.Sprintf("T_in,min: %d steps; chunks: %d", res.TInMin, len(res.Chunks)),
		fmt.Sprintf("test duration: %d steps = %.2f samples = %.3f s",
			res.TotalSteps(), res.DurationSamples(fx.sampleSteps), snnmetrics.DurationSeconds(fx.net, res.TotalSteps())),
		fmt.Sprintf("activated neurons: %.2f%%", 100*res.ActivatedFraction),
		fmt.Sprintf("generation: %d iterations, %d growths, %.1f new neurons/iteration",
			sum.Iterations, sum.TotalGrowths, sum.MeanNewActivated),
		fmt.Sprintf("FC critical neuron faults:  %.2f%%", 100*cov.CriticalNeuron.FC()),
		fmt.Sprintf("FC critical synapse faults: %.2f%%", 100*cov.CriticalSynapse.FC()),
		fmt.Sprintf("FC benign neuron faults:    %.2f%%", 100*cov.BenignNeuron.FC()),
		fmt.Sprintf("FC benign synapse faults:   %.2f%%", 100*cov.BenignSynapse.FC()),
	}, "faultsim": {
		fmt.Sprintf("  critical neuron faults:  %d", cov.CriticalNeuron.Total),
		fmt.Sprintf("  benign neuron faults:    %d", cov.BenignNeuron.Total),
		fmt.Sprintf("  critical synapse faults: %d", cov.CriticalSynapse.Total),
		fmt.Sprintf("  benign synapse faults:   %d", cov.BenignSynapse.Total),
	}}
}

func count(flags []bool) int {
	n := 0
	for _, f := range flags {
		if f {
			n++
		}
	}
	return n
}

func mb(bytes uint64) float64 { return float64(bytes) / (1 << 20) }

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// resetPeakRSS lowers the kernel's peak-RSS mark (VmHWM) to the current RSS.
func resetPeakRSS() error { return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB reads VmHWM, the peak resident set size since the last reset.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

func readMetric(name string) metrics.Value {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value
}

// allocBytes is the cumulative heap allocation of the process.
func allocBytes() uint64 { return readMetric("/gc/heap/allocs:bytes").Uint64() }

// gcCPUSeconds is the runtime's estimate of CPU time spent in GC.
func gcCPUSeconds() float64 { return readMetric("/cpu/classes/gc/total:cpu-seconds").Float64() }
