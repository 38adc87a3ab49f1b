package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"
)

// A stage shorter than topUpShare of an iteration is timed alone after
// the iterations until the run holds minSamples of it, so that no short
// stage is reported from a single sample.
const (
	minSamples = 5
	topUpShare = 0.2
)

// measure runs the workload for about budget and returns the result line.
// It starts another pipeline iteration while the run would end less than
// half an iteration past the budget, so a run makes at least one
// iteration (two in a traced run, which alternates untraced and traced
// iterations so that trace_overhead_pct compares iterations of the same
// process).
func (b *bench) measure(budget time.Duration, traced bool) result {
	var its []*iteration
	for loop := time.Now(); ; {
		if n := len(its); n > 0 {
			// Only the newest iteration keeps its artifacts, so earlier
			// ones do not inflate the heap of later ones.
			its[n-1].fx, its[n-1].res, its[n-1].faults, its[n-1].order = nil, nil, nil, nil
			its[n-1].detected, its[n-1].critical = nil, nil
		}
		it := b.iterate(len(its), traced && len(its)%2 == 1)
		its = append(its, it)
		if traced && len(its) < 2 {
			continue
		}
		if time.Since(loop)+time.Duration(it.v["total_s"]/2*float64(time.Second)) > budget {
			break
		}
	}
	last := its[len(its)-1]
	if last.err == nil {
		last.err = checkOracle(last)
	}
	b.gate(its)

	samples := make(map[string][]float64) // untraced end-to-end values
	attempted, failed := len(its), 0
	var ok []*iteration
	for i, it := range its {
		fmt.Fprintf(b.log, "perfbench: %s iteration %d (traced %v): total %.3f s, generate %.3f s, campaign %.3f s, error %v\n",
			b.w.name, i, it.traced, it.v["total_s"], it.v["generate_s"], it.v["campaign_s"], it.err)
		if it.err != nil {
			failed++
			continue
		}
		ok = append(ok, it)
		if !it.traced {
			for _, d := range endToEnd {
				samples[d.name] = append(samples[d.name], it.v[d.name])
			}
		}
	}
	if out, err := json.Marshal(its[0].out); err == nil {
		fmt.Fprintf(b.log, "perfbench: outcome %s\n", out)
	}

	m := make(map[string]metric)
	if !traced {
		if last.err == nil {
			a, f := b.topUp(last, samples)
			attempted, failed = attempted+a, failed+f
		}
		for _, d := range endToEnd {
			m[d.name] = metric{median(samples[d.name]), d.unit}
		}
	} else {
		tracedMedian := func(tr bool, name string) float64 {
			var xs []float64
			for _, it := range ok {
				if it.traced == tr {
					xs = append(xs, it.v[name])
				}
			}
			return median(xs)
		}
		v := make(map[string]float64)
		if err := b.probe(v); err != nil {
			fmt.Fprintf(b.log, "perfbench: %v\n", err)
			attempted, failed = attempted+1, failed+1
		}
		for _, d := range perLayer {
			x, probed := v[d.name]
			if !probed {
				x = tracedMedian(true, d.name)
			}
			m[d.name] = metric{x, d.unit}
		}
		m["trace_overhead_pct"] = metric{100 * (tracedMedian(true, "total_s")/tracedMedian(false, "total_s") - 1), "%"}
	}
	for name, x := range m {
		if math.IsNaN(x.Value) || math.IsInf(x.Value, 0) {
			fmt.Fprintf(b.log, "perfbench: metric %s is %v\n", name, x.Value)
			x.Value = 0
			m[name] = x
			failed = max(failed, 1)
		}
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}
}

// topUp times short stages alone, generation and campaigns on the last
// iteration's fixture (see minSamples), and appends their values to
// samples. Each repetition must reproduce the iteration's stimulus or
// campaign flags.
func (b *bench) topUp(last *iteration, samples map[string][]float64) (attempted, failed int) {
	stages := []struct {
		metric string
		run    func(v map[string]float64) error
	}{
		{"setup_s", func(v map[string]float64) error {
			_, err := b.setup(b.w.bench, "top-up", 0, v)
			return err
		}},
		{"generate_s", func(v map[string]float64) error {
			res, err := b.generate("top-up", 0, last.fx, v)
			if err == nil && tensorSHA(res.Stimulus) != last.out.StimulusSHA {
				err = errors.New("top-up generation produced another stimulus")
			}
			return err
		}},
		{"campaign_s", func(v map[string]float64) error {
			cls, sim, err := b.campaign("top-up", 0, last.fx, last.faults, last.res.Stimulus, v)
			if err == nil && (flagsSHA(last.order, cls.Critical) != last.out.CriticalSHA || flagsSHA(last.order, sim.Detected) != last.out.DetectedSHA) {
				err = errors.New("top-up campaign produced other flags")
			}
			return err
		}},
	}
	iter := median(samples["total_s"])
	for _, st := range stages {
		for len(samples[st.metric]) < minSamples && median(samples[st.metric]) < topUpShare*iter {
			attempted++
			v := make(map[string]float64)
			if err := st.run(v); err != nil {
				fmt.Fprintf(b.log, "perfbench: top-up %s: %v\n", st.metric, err)
				failed++
				break
			}
			for _, d := range endToEnd {
				if x, ok := v[d.name]; ok {
					samples[d.name] = append(samples[d.name], x)
				}
			}
		}
	}
	return attempted, failed
}

// gate fails every iteration whose outcome differs from the first good
// iteration's — traced iterations included, so tracing provably changes
// no result — or from expected.json.
func (b *bench) gate(its []*iteration) {
	want, werr := expectedOutcome(b.w.name)
	var ref *iteration
	for _, it := range its {
		if it.err != nil {
			continue
		}
		if ref == nil {
			ref = it
		}
		switch {
		case it.out != ref.out:
			it.err = fmt.Errorf("outcome %+v differs from the run's first %+v", it.out, ref.out)
		case werr != nil:
			it.err = werr
		case it.out != want:
			it.err = fmt.Errorf("outcome %+v differs from expected.json %+v", it.out, want)
		}
	}
}

// median returns the median of xs, or NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
