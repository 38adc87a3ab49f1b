package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"github.com/repro/snntest/internal/snn"
	"github.com/repro/snntest/internal/tensor"
)

// fastParallelConfig is a minimal-budget config with the multi-restart
// engine enabled; TInMin is pinned so each case exercises the restart
// machinery rather than calibration.
func fastParallelConfig(restarts, workers int) Config {
	cfg := TestConfig()
	cfg.Steps1 = 20
	cfg.MaxIterations = 2
	cfg.MaxGrowth = 1
	cfg.TInMin = 6
	cfg.Seed = 21
	cfg.Parallel = Parallel{Restarts: restarts, Workers: workers}
	return cfg
}

// The tentpole determinism contract: the worker count must never change
// the generated stimulus. Checked bit-for-bit on every builder fixture.
func TestEquivGenerateWorkerCountInvariance(t *testing.T) {
	for _, benchmark := range []string{"nmnist", "ibm-gesture", "shd"} {
		t.Run(benchmark, func(t *testing.T) {
			net := must(snn.Build(benchmark, rand.New(rand.NewSource(31)), snn.ScaleTiny))
			serial := must(Generate(net, fastParallelConfig(4, 1)))
			parallel := must(Generate(net, fastParallelConfig(4, 4)))
			if !tensor.Equal(serial.Stimulus, parallel.Stimulus, 0) {
				t.Fatal("Workers=4 stimulus differs from Workers=1 at Restarts=4")
			}
			if len(serial.Trace) != len(parallel.Trace) {
				t.Fatalf("trace length differs: %d vs %d", len(serial.Trace), len(parallel.Trace))
			}
			for i := range serial.Trace {
				if serial.Trace[i] != parallel.Trace[i] {
					t.Errorf("trace[%d] differs: %+v vs %+v", i, serial.Trace[i], parallel.Trace[i])
				}
			}
		})
	}
}

// stimulusSHA hashes a stimulus's shape and float64 bits, the same
// digest the benchmark pins its stimuli with.
func stimulusSHA(t *tensor.Tensor) string {
	h := sha256.New()
	for _, d := range t.Shape() {
		_ = binary.Write(h, binary.LittleEndian, int64(d))
	}
	var buf [8]byte
	for _, x := range t.Data() {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// One restart per iteration (Restarts 0 or 1) must keep producing the
// stimuli of the original single-optimizer algorithm byte-for-byte, with
// and without T_in,min calibration, on a plain network and on one whose
// projections carry training leaves. The digests were recorded before
// the single-restart path was folded into the multi-restart engine.
func TestEquivRestartsOnePinnedBytes(t *testing.T) {
	want := map[int]string{
		0: "39d30d78f0bb9730d5fd84770e09e3c31bf46a33e59f1c3b2a960f11cc845054",
		6: "9a56ccf2180fdbeafcc5580c7cd32d8bf7dcb205e86ccf04cfb367948a4db754",
	}
	for _, restarts := range []int{0, 1} {
		for _, tInMin := range []int{0, 6} {
			for _, leaves := range []bool{false, true} {
				net := smallNet(8)
				if leaves {
					net.ParamLeaves()
				}
				cfg := TestConfig()
				cfg.Seed = 9
				cfg.TInMin = tInMin
				cfg.Parallel = Parallel{Restarts: restarts, Workers: 4}
				res := must(Generate(net, cfg))
				if got := stimulusSHA(res.Stimulus); got != want[tInMin] {
					t.Errorf("restarts=%d tinmin=%d leaves=%v: stimulus sha256 %s, want %s",
						restarts, tInMin, leaves, got, want[tInMin])
				}
			}
		}
	}
}

// Calibrated generation (TInMin=0) with more than one restart must be
// worker-invariant too: calibration and every restart stream depend only
// on the seed.
func TestEquivCalibratedGenerateWorkerInvariance(t *testing.T) {
	net := smallNet(4)
	cfg := fastParallelConfig(2, 1)
	cfg.TInMin = 0 // force the calibration entry path
	a := must(Generate(net, cfg))
	cfg.Parallel.Workers = 4
	b := must(Generate(net, cfg))
	if a.TInMin != b.TInMin || !tensor.Equal(a.Stimulus, b.Stimulus, 0) {
		t.Error("calibrated multi-restart generation differs by worker count")
	}
	if a.TInMin < 1 || a.TInMin > 64 {
		t.Errorf("calibrated T_in,min = %d, implausible for a 2-layer net", a.TInMin)
	}
}

// Trace provenance: iterations record which restart won and how many
// ran; a single restart always reports 0/1.
func TestParallelTraceProvenance(t *testing.T) {
	net := smallNet(6)
	cfg := fastParallelConfig(3, 2)
	res := must(Generate(net, cfg))
	if len(res.Trace) == 0 {
		t.Fatal("no iterations recorded")
	}
	for _, it := range res.Trace {
		if it.RestartsRun != 3 {
			t.Errorf("iteration %d: RestartsRun = %d, want 3", it.Iteration, it.RestartsRun)
		}
		if it.Restart < 0 || it.Restart >= 3 {
			t.Errorf("iteration %d: Restart = %d out of [0,3)", it.Iteration, it.Restart)
		}
	}

	cfg.Parallel = Parallel{}
	res = must(Generate(net, cfg))
	for _, it := range res.Trace {
		if it.Restart != 0 || it.RestartsRun != 1 {
			t.Errorf("single-restart iteration %d: provenance %d/%d, want 0/1", it.Iteration, it.Restart, it.RestartsRun)
		}
	}
}

// A cancelled context stops the parallel engine gracefully: a partial
// (here empty) result, never an error.
func TestGenerateContextCancelledParallel(t *testing.T) {
	net := smallNet(10)
	cfg := fastParallelConfig(4, 2)
	cfg.TimeLimit = TestConfig().TimeLimit
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := must(GenerateContext(ctx, net, cfg))
	if len(res.Chunks) != 0 {
		t.Errorf("cancelled run produced %d chunks", len(res.Chunks))
	}
	if res.Stimulus == nil {
		t.Error("cancelled run must still assemble an (empty) stimulus")
	}
}

// Stress the concurrent restart machinery for the -race gate: many
// restarts, maximum contention, repeated runs sharing one trained-style
// network value.
func TestParallelRestartsRaceStress(t *testing.T) {
	net := smallNet(12)
	cfg := fastParallelConfig(6, 6)
	cfg.MaxIterations = 1
	cfg.Steps1 = 10
	var first *tensor.Tensor
	for rep := 0; rep < 3; rep++ {
		res := must(Generate(net, cfg))
		if first == nil {
			first = res.Stimulus
		} else if !tensor.Equal(first, res.Stimulus, 0) {
			t.Fatalf("rep %d: stimulus changed across identical runs", rep)
		}
	}
}
