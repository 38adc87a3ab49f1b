package core

import (
	"context"
	"math"
	"math/rand"
	"time"

	"github.com/repro/snntest/internal/obs"
	"github.com/repro/snntest/internal/pool"
	"github.com/repro/snntest/internal/snn"
)

// obsRestartHist times one restart's growth loop end to end.
var obsRestartHist = obs.NewTimingHistogram("core_restart_optimize_seconds")

// restartOutcome is the result of one iteration of the multi-restart
// stage-1 engine: the optimizer that produced the winner (kept so it can
// continue into stage 2), its best stage-1 outcome, and provenance for
// Trace.
type restartOutcome struct {
	opt     *chunkOptimizer
	best    stageOutcome
	growths int
	idx     int // winning restart index
	run     int // restarts actually evaluated
}

// runRestarts executes K = cfg.Parallel.restarts() independent stage-1
// optimizations of the same target set on the worker pool and returns the
// winner. Restart 0 draws from the master stream rng, exactly as a
// single-optimizer run does; restart r ≥ 1 draws from its own stream
// seeded by restartSeed(cfg.Seed, iter, r) and never touches rng. Every
// restart shares net, which must be leaf-free (see chunkOptimizer).
//
// The winner is chosen by a fixed, index-ordered tie-break — lowest
// stage-1 loss, then most newly activated target neurons, then lowest
// restart index — so the result is a pure function of the seed regardless
// of worker count or completion order. Restarts not yet started when ctx
// is cancelled are skipped and excluded from the RestartsRun count.
func runRestarts(ctx context.Context, net *snn.Network, cfg *Config, rng *rand.Rand, iter, tInMin int, tdMin float64, mask *LayerMask, target map[int]bool, offsets []int) (restartOutcome, error) {
	k := cfg.Parallel.restarts()
	type slot struct {
		opt     *chunkOptimizer
		best    stageOutcome
		growths int
		done    bool
		err     error
	}
	slots := make([]slot, k)
	pool.Run(cfg.Parallel.Workers, k, func(r int) {
		if ctx.Err() != nil {
			return
		}
		on := obs.On()
		var t0 time.Time
		if on {
			t0 = time.Now()
		}
		rctx, rsp := obs.Start(ctx, "generate/restart")
		rsp.SetAttr("restart", r)
		rrng := rng
		if r > 0 {
			rrng = rand.New(rand.NewSource(restartSeed(cfg.Seed, iter, r)))
		}
		opt := newChunkOptimizer(net, cfg, rrng, tInMin)
		best, growths, err := runGrowthLoop(rctx, opt, cfg, mask, tdMin, target, offsets)
		rsp.SetAttr("growths", growths)
		rsp.End()
		if on {
			obsRestartHist.Observe(time.Since(t0))
		}
		slots[r] = slot{opt: opt, best: best, growths: growths, done: true, err: err}
	})

	winner := restartOutcome{idx: -1}
	bestLoss, bestNew := math.Inf(1), -1
	for r := range slots {
		s := &slots[r]
		if !s.done {
			continue
		}
		if s.err != nil {
			return restartOutcome{}, s.err
		}
		winner.run++
		n := newTargets(s.best.activated, target)
		if s.best.loss < bestLoss || (s.best.loss == bestLoss && n > bestNew) { //lint:ignore floateq lexicographic tie-break on deterministically recomputed loss values
			bestLoss, bestNew = s.best.loss, n
			winner.opt, winner.best, winner.growths, winner.idx = s.opt, s.best, s.growths, r
		}
	}
	return winner, nil
}

// restartSeed derives the RNG seed of restart r ≥ 1 in iteration iter as
// a pure function of the run seed, so extra restarts never read the
// master stream. Each coordinate is folded in through a SplitMix64
// finalizer, which keeps neighbouring (iter, r) pairs decorrelated.
func restartSeed(seed int64, iter, r int) int64 {
	h := uint64(seed)
	for _, v := range [...]uint64{uint64(iter), uint64(r)} {
		h += v + 0x9e3779b97f4a7c15
		h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
		h = (h ^ h>>27) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return int64(h)
}
