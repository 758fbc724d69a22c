// Package sweep fans independent simulation runs across worker
// goroutines.
//
// Every experiment in the harness regenerates its figure or table from
// many *independent* simulations: one world per (method, node count) or
// (core count, virtualization ratio) point, each with its own engine,
// cluster, and seed. A run never shares mutable state with another, so
// the sweep can execute them concurrently and still produce bit-for-bit
// the rows a serial loop would: each task writes only its own
// caller-owned slot, result assembly happens after Run returns, and
// error selection is position-stable. Determinism therefore comes from
// the engine (each run is a pure function of its config), not from the
// execution order of the sweep.
package sweep

import (
	"sync"
	"time"
)

// PointDone describes one completed sweep task to a progress hook.
type PointDone struct {
	// Index is the task's index in [0,n); Worker the worker that ran
	// it (0 on a serial sweep).
	Index, Worker int
	// Done counts tasks completed so far, including this one; Total is
	// the sweep size, so Done ranges 1..Total over a sweep.
	Done, Total int
	// Elapsed is the task's host wall time. It never feeds back into
	// the simulation — it exists for throughput metrics and ETAs.
	Elapsed time.Duration
}

// Runner executes independent tasks with bounded parallelism.
type Runner struct {
	// Workers is the maximum number of concurrent tasks. Values <= 1
	// run the sweep serially on the calling goroutine.
	Workers int
	// OnStart, if non-nil, is called once with the sweep size before
	// any task runs.
	OnStart func(total int)
	// OnPoint, if non-nil, is called after each task completes,
	// including failed ones. Calls are serialized (never concurrent)
	// and Done is strictly increasing, so a hook can drive live
	// progress without its own locking. The hook observes the host
	// runtime only; task results are unaffected by its presence.
	OnPoint func(PointDone)
	// Acquire/Release, if non-nil, bracket every task: Acquire is
	// called (and must return) before the task runs, Release after it
	// finishes, on the same goroutine. They exist for admission
	// control when several Runners share one machine-wide execution
	// budget — e.g. the experiment server bounds total concurrent
	// simulations across requests by having every Runner block in
	// Acquire on a shared semaphore. Workers still caps this Runner's
	// own concurrency; the gate only tightens it. The measured Elapsed
	// reported to OnPoint covers the task only, not the wait in
	// Acquire.
	Acquire func()
	Release func()
}

// Run executes task(0..n-1). Each task must be independent of the
// others and confine its writes to caller-owned state indexed by its
// own i (e.g. results[i]). All tasks run to completion even if some
// fail; Run returns the error of the lowest-indexed failed task, so
// the reported error does not depend on scheduling order.
func (r Runner) Run(n int, task func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if r.OnStart != nil {
		r.OnStart(n)
	}
	workers := r.Workers
	if workers > n {
		workers = n
	}
	// run executes one task inside the admission gate; the elapsed
	// time excludes the wait in Acquire, so per-point throughput
	// metrics measure simulation, not queueing.
	run := func(i int) (time.Duration, error) {
		if r.Acquire != nil {
			r.Acquire()
		}
		var began time.Time
		if r.OnPoint != nil {
			began = time.Now()
		}
		err := task(i)
		var elapsed time.Duration
		if r.OnPoint != nil {
			elapsed = time.Since(began)
		}
		if r.Release != nil {
			r.Release()
		}
		return elapsed, err
	}
	if workers <= 1 {
		var first error
		for i := 0; i < n; i++ {
			elapsed, err := run(i)
			if err != nil && first == nil {
				first = err
			}
			if r.OnPoint != nil {
				r.OnPoint(PointDone{Index: i, Done: i + 1, Total: n, Elapsed: elapsed})
			}
		}
		return first
	}
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	// done and the OnPoint call share one mutex so hooks observe a
	// strictly increasing completion count and never run concurrently.
	var progressMu sync.Mutex
	done := 0
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		w := w
		go func() {
			defer wg.Done()
			for i := range next {
				var elapsed time.Duration
				elapsed, errs[i] = run(i)
				if r.OnPoint != nil {
					progressMu.Lock()
					done++
					r.OnPoint(PointDone{Index: i, Worker: w, Done: done, Total: n, Elapsed: elapsed})
					progressMu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
