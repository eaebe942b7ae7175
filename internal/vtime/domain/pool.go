package domain

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// The process-wide worker budget. Every ForEach fan-out (bench's
// cross-run fan-out is the one user) borrows extra workers from this
// one budget instead of spawning its own goroutines, so nested fan-outs
// degrade to sequential execution instead of oversubscribing cores:
// the total number of borrowed workers can never exceed GOMAXPROCS-1,
// and every borrower also works with its own calling goroutine.
//
// The budget is read from GOMAXPROCS at each acquisition, so tests can
// widen it (runtime.GOMAXPROCS) to exercise real concurrency under the
// race detector even on small machines.
var borrowed atomic.Int64

// tryBorrow takes one worker from the budget, failing (never blocking)
// when the budget is exhausted. Blocking here could deadlock nested
// fan-outs; failing just means the caller runs more of the work itself.
func tryBorrow() bool {
	for {
		cur := borrowed.Load()
		if cur >= int64(runtime.GOMAXPROCS(0)-1) {
			return false
		}
		if borrowed.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// ForEach runs n independent jobs, at most max concurrently (0 means up
// to GOMAXPROCS), drawing extra workers from the process-wide budget.
// The calling goroutine always participates, so ForEach makes progress
// even with an empty budget. It returns the first error; after a
// failure, running workers stop at their next job boundary. A panicking
// job stops the fan-out and the panic is re-raised on the caller's
// goroutine once all workers have parked — a worker goroutine never
// takes the process down without the caller's stack attached.
//
// Job indices are claimed dynamically, so which worker runs which job is
// scheduling-dependent; jobs must be independent, and anything
// deterministic must be keyed by job index, not execution order.
func ForEach(n, max int, job func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if max <= 0 {
		max = runtime.GOMAXPROCS(0)
	}
	if max > n {
		max = n
	}
	extra := 0
	for extra < max-1 && tryBorrow() {
		extra++
	}
	var (
		next     atomic.Int64
		stop     atomic.Bool
		mu       sync.Mutex
		firstErr error
		panicked any
	)
	work := func() {
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				if panicked == nil {
					panicked = r
				}
				mu.Unlock()
				stop.Store(true)
			}
		}()
		for !stop.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := job(i); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				stop.Store(true)
				return
			}
		}
	}
	if extra == 0 {
		work()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < extra; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		work()
		wg.Wait()
		borrowed.Add(int64(-extra))
	}
	if panicked != nil {
		panic(fmt.Sprintf("domain: worker panicked: %v", panicked))
	}
	return firstErr
}
