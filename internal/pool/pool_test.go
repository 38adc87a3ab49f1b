package pool

import (
	"bytes"
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/repro/snntest/internal/obs"
)

// workerState is deliberately unsynchronized: under -race, two workers
// sharing one state value would be reported as a data race on its
// fields, and the busy flag catches overlapping use without -race.
type workerState struct {
	busy atomic.Bool
	runs []int
}

// TestRunWithContract pins the pool contract for every size class: each
// index runs exactly once, exactly size(workers, n) states are created,
// and no state is ever used by two calls at once.
func TestRunWithContract(t *testing.T) {
	for _, n := range []int{0, 1, 17} {
		for _, workers := range []int{0, 1, 2, n, n + 3} {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(t *testing.T) {
				hits := make([]atomic.Int32, n)
				var mu sync.Mutex
				var states []*workerState
				RunWith(workers, n, func() *workerState {
					s := &workerState{}
					mu.Lock()
					states = append(states, s)
					mu.Unlock()
					return s
				}, func(s *workerState, i int) {
					if !s.busy.CompareAndSwap(false, true) {
						t.Errorf("index %d: worker state already in use", i)
					}
					s.runs = append(s.runs, i)
					hits[i].Add(1)
					s.busy.Store(false)
				})
				for i := range hits {
					if got := hits[i].Load(); got != 1 {
						t.Errorf("index %d ran %d times, want 1", i, got)
					}
				}
				if want := size(workers, n); len(states) != want {
					t.Errorf("created %d worker states, want %d", len(states), want)
				}
				total := 0
				for _, s := range states {
					total += len(s.runs)
				}
				if total != n {
					t.Errorf("states saw %d calls, want %d", total, n)
				}
			})
		}
	}
}

// TestRunIndexesOnce covers the stateless entry point.
func TestRunIndexesOnce(t *testing.T) {
	const n = 17
	hits := make([]atomic.Int32, n)
	Run(4, n, func(i int) { hits[i].Add(1) })
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Errorf("index %d ran %d times, want 1", i, got)
		}
	}
}

// TestSingleWorkerRunsOnCaller pins the one-worker fast path: no
// goroutine is spawned, so work runs in order on the calling goroutine.
func TestSingleWorkerRunsOnCaller(t *testing.T) {
	var order []int
	Run(1, 5, func(i int) { order = append(order, i) })
	for i, got := range order {
		if got != i {
			t.Fatalf("one-worker order = %v, want 0..4", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("ran %d items, want 5", len(order))
	}
}

// TestWorkersInheritProfileLabels pins that pool workers carry the
// spawning goroutine's pprof labels, so phase- and run-attributed CPU
// profiles see pool work under the caller's labels. Both workers park on
// a barrier while the goroutine profile is taken; every goroutine
// running pool code must carry the label.
func TestWorkersInheritProfileLabels(t *testing.T) {
	var dump bytes.Buffer
	pprof.Do(context.Background(), pprof.Labels("pooltest", "inherit"), func(context.Context) {
		var arrived sync.WaitGroup
		arrived.Add(2)
		release := make(chan struct{})
		Run(2, 2, func(i int) {
			arrived.Done()
			arrived.Wait()
			if i == 0 {
				if err := pprof.Lookup("goroutine").WriteTo(&dump, 1); err != nil {
					t.Error(err)
				}
				close(release)
			}
			<-release
		})
	})
	// Drop the "goroutine profile: total N" header; records follow,
	// separated by blank lines, each opening with its goroutine count.
	_, body, _ := strings.Cut(dump.String(), "\n")
	workers := 0
	for _, rec := range strings.Split(body, "\n\n") {
		// Workers of earlier tests' pools may still be unwinding; only
		// goroutines running this test's pool count.
		if !strings.Contains(rec, "internal/pool.RunWith") || !strings.Contains(rec, "TestWorkersInheritProfileLabels") {
			continue
		}
		if !strings.Contains(rec, `"pooltest":"inherit"`) {
			t.Errorf("pool goroutine without the caller's labels:\n%s", rec)
		}
		count, _, _ := strings.Cut(rec, " ")
		c, err := strconv.Atoi(count)
		if err != nil {
			t.Fatalf("unparseable goroutine record:\n%s", rec)
		}
		workers += c
	}
	if workers < 2 {
		t.Errorf("found %d pool goroutines in the profile, want 2:\n%s", workers, dump.String())
	}
}

// gauge reads one registered gauge by name.
func gauge(name string) int64 {
	for _, g := range obs.GaugeSnapshot() {
		if g.Name == name {
			return g.Value
		}
	}
	return -1
}

// TestTelemetry pins the pool's worker_* series: dark runs record
// nothing; with obs on, busy time accumulates, utilization lands in
// (0, 100] and the size gauge drops back to 0 when the pool drains.
func TestTelemetry(t *testing.T) {
	obs.ResetCounters()
	t.Cleanup(func() {
		obs.Disable()
		obs.ResetCounters()
	})
	work := func(int) { time.Sleep(2 * time.Millisecond) }

	Run(2, 4, work)
	if busy := obs.Snapshot()["worker_busy_micros_total"]; busy != 0 {
		t.Errorf("dark run recorded worker_busy_micros_total = %d", busy)
	}

	obs.Enable()
	Run(2, 4, work)
	if busy := obs.Snapshot()["worker_busy_micros_total"]; busy < 4*2000 {
		t.Errorf("worker_busy_micros_total = %d, want ≥ %d", busy, 4*2000)
	}
	if u := gauge("worker_utilization_percent"); u <= 0 || u > 100 {
		t.Errorf("worker_utilization_percent = %d, want (0, 100]", u)
	}
	if n := gauge("worker_pool_size_workers"); n != 0 {
		t.Errorf("worker_pool_size_workers = %d after drain, want 0", n)
	}
}
