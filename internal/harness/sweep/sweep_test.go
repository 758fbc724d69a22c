package sweep

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestRunFillsEverySlot(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		out := make([]int, 100)
		err := Runner{Workers: workers}.Run(len(out), func(i int) error {
			out[i] = i * i
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestRunReturnsLowestIndexedError(t *testing.T) {
	want := errors.New("task 3")
	err := Runner{Workers: 8}.Run(10, func(i int) error {
		if i == 3 {
			return want
		}
		if i == 7 {
			return fmt.Errorf("task 7")
		}
		return nil
	})
	if err != want {
		t.Fatalf("got %v, want the lowest-indexed error", err)
	}
}

func TestRunAllTasksRunDespiteErrors(t *testing.T) {
	var ran atomic.Int64
	_ = Runner{Workers: 4}.Run(20, func(i int) error {
		ran.Add(1)
		return errors.New("boom")
	})
	if ran.Load() != 20 {
		t.Fatalf("%d tasks ran, want 20", ran.Load())
	}
}

func TestRunZeroTasks(t *testing.T) {
	if err := (Runner{Workers: 4}).Run(0, func(i int) error { return errors.New("never") }); err != nil {
		t.Fatal(err)
	}
}

func TestRunActuallyParallel(t *testing.T) {
	// With 4 workers and 4 tasks that each wait for all 4 to start,
	// completion proves concurrent execution.
	const n = 4
	start := make(chan struct{})
	var started atomic.Int64
	err := Runner{Workers: n}.Run(n, func(i int) error {
		if started.Add(1) == n {
			close(start)
		}
		<-start
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The progress hooks' contract under parallelism: OnStart fires once
// with the sweep size before any task, OnPoint calls are serialized
// with a strictly increasing Done of 1..n, every index is reported
// exactly once, and worker attribution stays in range.
func TestOnPointOrderingUnderParallelism(t *testing.T) {
	for _, workers := range []int{1, 4, 9} {
		const n = 60
		var starts []int
		var inHook atomic.Int64
		lastDone := 0
		seen := make([]int, n)
		perWorker := make(map[int]int)
		r := Runner{
			Workers: workers,
			OnStart: func(total int) { starts = append(starts, total) },
			OnPoint: func(d PointDone) {
				if inHook.Add(1) != 1 {
					t.Errorf("workers=%d: OnPoint ran concurrently", workers)
				}
				defer inHook.Add(-1)
				if len(starts) == 0 {
					t.Fatalf("workers=%d: OnPoint before OnStart", workers)
				}
				if d.Total != n {
					t.Fatalf("workers=%d: Total = %d, want %d", workers, d.Total, n)
				}
				if d.Done != lastDone+1 {
					t.Fatalf("workers=%d: Done = %d after %d, want strict increments", workers, d.Done, lastDone)
				}
				lastDone = d.Done
				seen[d.Index]++
				if d.Worker < 0 || d.Worker >= workers {
					t.Fatalf("workers=%d: worker id %d out of range", workers, d.Worker)
				}
				perWorker[d.Worker]++
				if d.Elapsed < 0 {
					t.Fatalf("workers=%d: negative elapsed %v", workers, d.Elapsed)
				}
			},
		}
		err := r.Run(n, func(i int) error {
			if i%7 == 3 {
				return errors.New("some points fail")
			}
			return nil
		})
		if err == nil {
			t.Fatalf("workers=%d: expected a task error", workers)
		}
		if len(starts) != 1 || starts[0] != n {
			t.Fatalf("workers=%d: OnStart calls %v, want one with %d", workers, starts, n)
		}
		if lastDone != n {
			t.Fatalf("workers=%d: final Done = %d, want %d (failed tasks must still report)", workers, lastDone, n)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: index %d reported %d times", workers, i, c)
			}
		}
		total := 0
		for _, c := range perWorker {
			total += c
		}
		if total != n {
			t.Fatalf("workers=%d: per-worker counts sum to %d, want %d", workers, total, n)
		}
	}
}

// Hooks must not change what Run computes: same slots filled, same
// lowest-indexed error.
func TestOnPointDoesNotPerturbResults(t *testing.T) {
	want := errors.New("task 5")
	out := make([]int, 40)
	err := Runner{
		Workers: 8,
		OnPoint: func(PointDone) {},
	}.Run(len(out), func(i int) error {
		out[i] = i + 1
		if i == 5 {
			return want
		}
		return nil
	})
	if err != want {
		t.Fatalf("got %v, want the lowest-indexed error", err)
	}
	for i, v := range out {
		if v != i+1 {
			t.Fatalf("slot %d = %d", i, v)
		}
	}
}

// The admission gate's contract: every task is bracketed by exactly
// one Acquire/Release pair, and a gate backed by a shared semaphore
// bounds concurrency below Workers — the experiment server's pattern
// of many Runners sharing one machine-wide execution budget.
func TestAcquireReleaseGateBoundsConcurrency(t *testing.T) {
	for _, workers := range []int{1, 8} {
		const n, slots = 30, 2
		sem := make(chan struct{}, slots)
		var acquired, released atomic.Int64
		var running, peak atomic.Int64
		r := Runner{
			Workers: workers,
			Acquire: func() { acquired.Add(1); sem <- struct{}{} },
			Release: func() { <-sem; released.Add(1) },
		}
		err := r.Run(n, func(i int) error {
			cur := running.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			running.Add(-1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if acquired.Load() != n || released.Load() != n {
			t.Fatalf("workers=%d: %d acquires / %d releases, want %d each",
				workers, acquired.Load(), released.Load(), n)
		}
		if peak.Load() > slots {
			t.Fatalf("workers=%d: %d tasks ran concurrently past the %d-slot gate",
				workers, peak.Load(), slots)
		}
	}
}

// Release runs even for failing tasks, so a shared semaphore can never
// leak slots.
func TestReleaseRunsOnTaskError(t *testing.T) {
	var balance atomic.Int64
	_ = Runner{
		Workers: 4,
		Acquire: func() { balance.Add(1) },
		Release: func() { balance.Add(-1) },
	}.Run(16, func(i int) error { return errors.New("boom") })
	if balance.Load() != 0 {
		t.Fatalf("acquire/release imbalance: %d", balance.Load())
	}
}
