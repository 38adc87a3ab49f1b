// Package pool is the module's one worker pool: it runs index-addressed
// work — generation restarts, fault-campaign faults — on a bounded set of
// goroutines.
//
// The pool imposes no ordering. Each fn call must write only to its own
// index-addressed slot, so determinism comes from the slots, never from
// completion order. Scheduling is a single atomic counter: no channel, no
// per-item send/receive, and a one-worker pool is a plain loop on the
// caller's goroutine with no synchronization at all.
//
// Workers are spawned from the caller's goroutine, so they inherit its
// pprof labels: CPU samples taken inside fn land in the caller's phase
// and run.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/repro/snntest/internal/obs"
)

// Worker-pool resource telemetry, written only while the obs layer is
// on: pool size as a live gauge, total in-fn busy time as a counter, and
// utilization — busy time over workers × wall time — as a percentage
// gauge written when the pool drains. A mostly idle pool is contended or
// starved, not compute-bound. Pools never overlap (generation phases and
// campaigns are sequential), so the gauges describe whichever pool ran
// last.
var (
	obsPoolSize = obs.NewGauge("worker_pool_size_workers")
	obsBusy     = obs.NewCounter("worker_busy_micros_total")
	obsUtil     = obs.NewGauge("worker_utilization_percent")
)

// size returns the number of goroutines a pool of the requested size
// runs for n items: min(workers, n), where workers ≤ 0 means GOMAXPROCS.
func size(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, n)
}

// Run calls fn(i) for every i in [0, n) on min(workers, n) goroutines,
// where workers ≤ 0 means GOMAXPROCS, and returns when all calls have
// returned.
func Run(workers, n int, fn func(i int)) {
	RunWith(workers, n, func() struct{} { return struct{}{} }, func(_ struct{}, i int) { fn(i) })
}

// RunWith is Run with per-worker state: every worker calls newState once
// and passes the result to each of its fn calls, so the state is confined
// to one goroutine and needs no locking.
func RunWith[S any](workers, n int, newState func() S, fn func(state S, i int)) {
	workers = size(workers, n)
	if workers < 1 {
		return
	}
	if obs.On() {
		start := time.Now()
		var busyUS atomic.Int64
		work := fn
		fn = func(s S, i int) {
			t0 := time.Now()
			work(s, i)
			busyUS.Add(time.Since(t0).Microseconds())
		}
		obsPoolSize.Set(int64(workers))
		defer func() {
			busy := busyUS.Load()
			obsBusy.Add(busy)
			if capacity := time.Since(start).Microseconds() * int64(workers); capacity > 0 {
				obsUtil.Set(busy * 100 / capacity)
			}
			obsPoolSize.Set(0)
		}()
	}
	if workers == 1 {
		s := newState()
		for i := 0; i < n; i++ {
			fn(s, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			s := newState()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(s, i)
			}
		}()
	}
	wg.Wait()
}
