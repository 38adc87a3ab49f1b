package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"github.com/repro/snntest/internal/core"
	"github.com/repro/snntest/internal/fault"
	"github.com/repro/snntest/internal/tensor"
)

// outcome is what one pipeline iteration produces that must repeat
// exactly: across the iterations of a run, between traced and untraced
// iterations and against expected.json, the default-flag CLI run. Flag
// vectors are hashed in the universe's own order, so the outcome does not
// depend on the workload seed.
type outcome struct {
	TInMin        int     `json:"t_in_min"`
	Chunks        int     `json:"chunks"`
	TestSteps     int     `json:"test_steps"`
	Faults        int     `json:"faults"`
	StimulusSHA   string  `json:"stimulus_sha256"`
	DetectedSHA   string  `json:"detected_sha256"`
	CriticalSHA   string  `json:"critical_sha256"`
	FCCriticalPct float64 `json:"fc_critical_pct"`
}

// newOutcome summarises an iteration whose campaigns saw the universe in
// order: detected[k] and critical[k] belong to universe fault order[k].
func newOutcome(res *core.Result, order []int, detected, critical []bool, fcPct float64) outcome {
	return outcome{
		TInMin:        res.TInMin,
		Chunks:        len(res.Chunks),
		TestSteps:     res.TotalSteps(),
		Faults:        len(order),
		StimulusSHA:   tensorSHA(res.Stimulus),
		DetectedSHA:   flagsSHA(order, detected),
		CriticalSHA:   flagsSHA(order, critical),
		FCCriticalPct: fcPct,
	}
}

// expectedJSON pins, per workload, the outcome of the CLIs' default-flag
// run.
//
//go:embed expected.json
var expectedJSON []byte

func expectedOutcome(name string) (outcome, error) {
	var all map[string]outcome
	dec := json.NewDecoder(bytes.NewReader(expectedJSON))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&all); err != nil {
		return outcome{}, fmt.Errorf("expected.json: %w", err)
	}
	o, ok := all[name]
	if !ok {
		return outcome{}, fmt.Errorf("expected.json has no entry for %q", name)
	}
	return o, nil
}

func tensorSHA(t *tensor.Tensor) string {
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

// flagsSHA hashes flags put back into universe order (flags[k] belongs to
// universe fault order[k]).
func flagsSHA(order []int, flags []bool) string {
	canon := make([]byte, len(flags))
	for k, f := range flags {
		if f {
			canon[order[k]] = 1
		}
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:])
}

// checkIteration checks one iteration's stimulus: binary, finite, of the
// Eq. 8 length and byte-identical to core.Assemble of its chunks.
func checkIteration(it *iteration) error {
	res := it.res
	for i, x := range res.Stimulus.Data() {
		if bits := math.Float64bits(x); bits != 0 && bits != math.Float64bits(1) {
			return fmt.Errorf("stimulus element %d is %v, not 0 or 1", i, x)
		}
	}
	eq8 := 0
	for j, c := range res.Chunks {
		eq8 += c.Dim(0)
		if j < len(res.Chunks)-1 {
			eq8 += c.Dim(0) // the zero separator 0^j lasts as long as I^j
		}
	}
	if len(res.Chunks) > 0 && res.TotalSteps() != eq8 {
		return fmt.Errorf("stimulus has %d steps, Eq. 8 gives %d", res.TotalSteps(), eq8)
	}
	if got := tensorSHA(core.Assemble(it.fx.net, res.Chunks)); got != it.out.StimulusSHA {
		return fmt.Errorf("stimulus differs from core.Assemble of its chunks")
	}
	return nil
}

// oracleStride picks the fault subset the reference campaigns re-check.
const oracleStride = 16

// checkOracle re-runs both campaigns on every oracleStride-th fault of the
// universe with full re-simulation (no golden-trace replay, no early exit)
// and requires the timed fast path's Detected and Critical flags on that
// subset.
func checkOracle(it *iteration) error {
	var sub []fault.Fault
	var idx []int
	for k, u := range it.order {
		if u%oracleStride == 0 {
			sub, idx = append(sub, it.faults[k]), append(idx, k)
		}
	}
	ref := fault.CampaignOptions{FullResim: true}
	sim, err := fault.SimulateWith(it.fx.net, sub, it.res.Stimulus, ref)
	if err != nil {
		return err
	}
	cls, err := fault.ClassifyWith(it.fx.net, sub, it.fx.testIn, ref)
	if err != nil {
		return err
	}
	for k, i := range idx {
		if sim.Detected[k] != it.detected[i] {
			return fmt.Errorf("fault %d (%v): detected %v, full re-simulation says %v", i, it.faults[i], it.detected[i], sim.Detected[k])
		}
		if cls.Critical[k] != it.critical[i] {
			return fmt.Errorf("fault %d (%v): critical %v, full re-simulation says %v", i, it.faults[i], it.critical[i], cls.Critical[k])
		}
	}
	return nil
}
