package main

import (
	"fmt"
	"slices"
	"time"

	"github.com/repro/snntest/internal/snn"
)

// probeNets lists the layers of every benchmark network at tiny scale.
// Per-layer metric names must be the same on every workload, so each
// traced run probes all three networks, not only its own.
var probeNets = []struct {
	bench  string
	layers []string
}{
	{"nmnist", []string{"conv1", "out"}},
	{"ibm-gesture", []string{"pool1", "conv1", "pool2", "out"}},
	{"shd", []string{"recurrent1", "out"}},
}

func probeMetricName(bench, layer string) string {
	return fmt.Sprintf("snn.%s.%s.fwd_ns_per_step", bench, layer)
}

func probeMetrics() []metricDef {
	var defs []metricDef
	for _, pn := range probeNets {
		for _, l := range pn.layers {
			defs = append(defs, metricDef{probeMetricName(pn.bench, l), "ns", "lower"})
		}
	}
	return defs
}

// probeBudget is the timed share of one network's probe.
const probeBudget = 400 * time.Millisecond

// probe measures each layer's fused forward cost per simulated step on a
// trained network and its test split, from outside: the time of
// Scratch.RunFrom(ℓ) minus that of RunFrom(ℓ+1) (layer ℓ+1 onward) in
// the same repetition, divided by the steps simulated; the median over
// repetitions is reported. One untimed pass of every start layer warms
// the scratch buffers first.
func (b *bench) probe(v map[string]float64) error {
	for _, pn := range probeNets {
		fx, err := b.setup(pn.bench, "probe-"+pn.bench, 0, map[string]float64{})
		if err != nil {
			return err
		}
		net := fx.net
		names := make([]string, len(net.Layers))
		for i, l := range net.Layers {
			names[i] = l.Name
		}
		if !slices.Equal(names, pn.layers) {
			return fmt.Errorf("probe: %s layers are %v, want %v", pn.bench, names, pn.layers)
		}
		golden := make([]*snn.Record, len(fx.testIn))
		steps := 0
		for i, s := range fx.testIn {
			golden[i] = net.Run(s)
			steps += golden[i].Steps
		}
		sc := net.NewScratch()
		pass := func(start int) time.Duration {
			t0 := time.Now()
			for i, s := range fx.testIn {
				sc.RunFrom(start, golden[i], s)
			}
			return time.Since(t0)
		}
		for l := range net.Layers {
			pass(l)
		}
		diffs := make([][]float64, len(net.Layers))
		for t0 := time.Now(); time.Since(t0) < probeBudget; {
			times := make([]time.Duration, len(net.Layers)+1) // times[L] = 0: nothing above the output
			for l := range net.Layers {
				times[l] = pass(l)
			}
			for l := range net.Layers {
				diffs[l] = append(diffs[l], float64(times[l]-times[l+1])/float64(steps))
			}
		}
		for l, name := range pn.layers {
			v[probeMetricName(pn.bench, name)] = median(diffs[l])
		}
	}
	return nil
}
