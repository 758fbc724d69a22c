package ult

import (
	"testing"
	"time"

	"provirt/internal/machine"
	"provirt/internal/sim"
)

func testSched(t *testing.T) (*Scheduler, *sim.Engine) {
	t.Helper()
	cl, err := machine.New(machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 1})
	if err != nil {
		t.Fatal(err)
	}
	return NewScheduler(cl.PE(0), cl.Engine, cl.Cost), cl.Engine
}

func newThread(id int, body func(*Thread)) *Thread {
	t := new(Thread)
	InitThread(t, id, body)
	return t
}

// doneCount reports how many of the scheduler's threads have finished.
func doneCount(s *Scheduler) int {
	n := 0
	for _, t := range s.Threads() {
		if t.State() == Done {
			n++
		}
	}
	return n
}

func TestThreadRunsToCompletion(t *testing.T) {
	s, e := testSched(t)
	ran := false
	th := newThread(0, func(t *Thread) { ran = true })
	s.Adopt(th)
	e.Drain()
	if !ran || th.State() != Done {
		t.Fatalf("ran=%v state=%v", ran, th.State())
	}
	if doneCount(s) != 1 {
		t.Fatalf("done count %d", doneCount(s))
	}
}

func TestCooperativeInterleaving(t *testing.T) {
	s, e := testSched(t)
	var order []int
	mk := func(id int) *Thread {
		return newThread(id, func(th *Thread) {
			for i := 0; i < 3; i++ {
				order = append(order, id)
				th.Yield()
			}
		})
	}
	s.Adopt(mk(1))
	s.Adopt(mk(2))
	e.Drain()
	want := []int{1, 2, 1, 2, 1, 2}
	if len(order) != len(want) {
		t.Fatalf("order %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestAdvanceMovesClockAndLoad(t *testing.T) {
	s, e := testSched(t)
	th := newThread(0, func(th *Thread) {
		th.Advance(5 * time.Millisecond)
	})
	s.Adopt(th)
	e.Drain()
	if s.Now() < 5*time.Millisecond {
		t.Fatalf("clock %v", s.Now())
	}
	if th.Load != 5*time.Millisecond {
		t.Fatalf("load %v", th.Load)
	}
	th.ResetLoad()
	if th.Load != 0 {
		t.Fatal("load not reset")
	}
}

func TestSuspendWake(t *testing.T) {
	s, e := testSched(t)
	phase := 0
	th := newThread(0, func(th *Thread) {
		phase = 1
		th.Suspend()
		phase = 2
	})
	s.Adopt(th)
	e.Drain()
	if phase != 1 || th.State() != Blocked {
		t.Fatalf("phase=%d state=%v", phase, th.State())
	}
	e.At(e.Now()+time.Microsecond, func() { th.Wake() })
	e.Drain()
	if phase != 2 || th.State() != Done {
		t.Fatalf("after wake: phase=%d state=%v", phase, th.State())
	}
}

func TestSwitchCostCharged(t *testing.T) {
	s, e := testSched(t)
	extra := 7 * time.Nanosecond
	s.SwitchExtra = func(from, to *Thread) sim.Time { return extra }
	th := newThread(0, func(th *Thread) {
		for i := 0; i < 9; i++ {
			th.Yield()
		}
	})
	s.Adopt(th)
	e.Drain()
	if s.Switches() != 10 {
		t.Fatalf("%d switches", s.Switches())
	}
	want := 10 * (s.Cost.ULTSwitchBase + extra)
	if s.SwitchTime() != want {
		t.Fatalf("switch time %v, want %v", s.SwitchTime(), want)
	}
}

func TestPanicCapturedAsErr(t *testing.T) {
	s, e := testSched(t)
	th := newThread(3, func(th *Thread) { panic("boom") })
	s.Adopt(th)
	e.Drain()
	if th.Err == nil || th.State() != Done {
		t.Fatalf("err=%v state=%v", th.Err, th.State())
	}
}

func TestRemoveAndAdoptBlocked(t *testing.T) {
	cl, _ := machine.New(machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 2})
	s0 := NewScheduler(cl.PE(0), cl.Engine, cl.Cost)
	s1 := NewScheduler(cl.PE(1), cl.Engine, cl.Cost)
	var resumedOn *Scheduler
	th := newThread(0, func(th *Thread) {
		th.Suspend()
		resumedOn = th.sched
	})
	s0.Adopt(th)
	cl.Engine.Drain()
	// Migrate the blocked thread.
	s0.Remove(th)
	if th.sched != nil {
		t.Fatal("removed thread still bound")
	}
	s1.AdoptBlocked(th)
	if th.State() != Blocked {
		t.Fatal("AdoptBlocked changed state")
	}
	cl.Engine.At(cl.Engine.Now()+time.Microsecond, func() { th.Wake() })
	cl.Engine.Drain()
	if resumedOn != s1 {
		t.Fatal("thread did not resume on the destination scheduler")
	}
	if len(s0.Threads()) != 0 || len(s1.Threads()) != 1 {
		t.Fatalf("thread lists: %d and %d", len(s0.Threads()), len(s1.Threads()))
	}
}

func TestWakeOfRunnableThreadPanics(t *testing.T) {
	s, e := testSched(t)
	th := newThread(0, func(th *Thread) { th.Yield() })
	s.Adopt(th)
	defer func() {
		if recover() == nil {
			t.Fatal("waking a ready thread must panic")
		}
	}()
	_ = e
	th.Wake() // state Ready (adopted, not yet run)
}

func TestSchedulerClockFollowsEngine(t *testing.T) {
	s, e := testSched(t)
	// An event far in the future adopts a thread; the scheduler pass
	// must not run the thread at an earlier local time.
	e.At(time.Second, func() {
		th := newThread(0, func(th *Thread) {
			if th.Now() < time.Second {
				t.Errorf("thread ran at %v, before adoption time", th.Now())
			}
		})
		s.Adopt(th)
	})
	e.Drain()
}

func TestManyThreadsFIFO(t *testing.T) {
	s, e := testSched(t)
	const n = 100
	var order []int
	for i := 0; i < n; i++ {
		i := i
		s.Adopt(newThread(i, func(th *Thread) { order = append(order, i) }))
	}
	e.Drain()
	for i := 0; i < n; i++ {
		if order[i] != i {
			t.Fatalf("adoption order not FIFO at %d: %v", i, order[:i+1])
		}
	}
	if s.RunnableCount() != 0 {
		t.Fatal("runnable queue not drained")
	}
}

// killTarget is a thread that records how far it got and what ran while
// it unwound.
type killTarget struct {
	th       *Thread
	started  bool
	resumed  bool
	deferred int
}

// newKillTarget's body suspends once. While unwinding, its first deferred
// function parks again (as a deferred MPI call would), which must
// re-panic rather than hang, and the second must still run.
func newKillTarget(id int) *killTarget {
	k := &killTarget{}
	k.th = newThread(id, func(th *Thread) {
		k.started = true
		defer func() { k.deferred++ }()
		defer func() {
			k.deferred++
			th.Suspend()
			k.deferred = -100 // unreachable once killed
		}()
		th.Suspend()
		k.resumed = true
	})
	return k
}

func (k *killTarget) check(t *testing.T, s *Scheduler, wantErr string, wantDeferred int) {
	t.Helper()
	if k.th.State() != Done {
		t.Errorf("state %v, want done", k.th.State())
	}
	if k.th.Err == nil || k.th.Err.Error() != wantErr {
		t.Errorf("Err = %v, want %q", k.th.Err, wantErr)
	}
	if k.resumed {
		t.Error("killed body ran past its suspension point")
	}
	if k.deferred != wantDeferred {
		t.Errorf("%d deferred functions ran, want %d", k.deferred, wantDeferred)
	}
	if doneCount(s) != 1 {
		t.Errorf("done count %d, want 1", doneCount(s))
	}
}

func TestKillBlocked(t *testing.T) {
	s, e := testSched(t)
	k := newKillTarget(4)
	s.Adopt(k.th)
	e.Drain()
	if k.th.State() != Blocked {
		t.Fatalf("state %v before kill", k.th.State())
	}
	k.th.Kill("node 1 failed")
	k.check(t, s, "ult: thread 4 killed: node 1 failed", 2)
	// Idempotent, and a stale wake-up finds nothing to run.
	k.th.Kill("again")
	k.check(t, s, "ult: thread 4 killed: node 1 failed", 2)
}

func TestKillReady(t *testing.T) {
	s, e := testSched(t)
	k := newKillTarget(5)
	s.Adopt(k.th)
	e.Drain()
	// Woken but not yet run: Ready, with a queue entry and a pass pending.
	k.th.Wake()
	if k.th.State() != Ready || s.RunnableCount() != 1 {
		t.Fatalf("state %v, %d runnable before kill", k.th.State(), s.RunnableCount())
	}
	k.th.Kill("preempted")
	k.check(t, s, "ult: thread 5 killed: preempted", 2)
	// The pending pass skips the dead thread's queue entry.
	e.Drain()
	k.check(t, s, "ult: thread 5 killed: preempted", 2)
	if s.RunnableCount() != 0 {
		t.Errorf("%d runnable after drain", s.RunnableCount())
	}
}

func TestKillNeverStarted(t *testing.T) {
	s, e := testSched(t)
	k := newKillTarget(6)
	s.Adopt(k.th) // Ready, but no pass has run it yet
	k.th.Kill("early")
	k.check(t, s, "ult: thread 6 killed before first run: early", 0)
	e.Drain()
	if k.started {
		t.Error("thread killed before its first run still ran")
	}
	k.check(t, s, "ult: thread 6 killed before first run: early", 0)

	// Not even adopted: no scheduler to account to.
	orphan := newThread(7, func(*Thread) { t.Error("orphan ran") })
	orphan.Kill("unplaced")
	if orphan.State() != Done || orphan.Err == nil {
		t.Errorf("orphan: state %v err %v", orphan.State(), orphan.Err)
	}
}

func TestKillRunningPanics(t *testing.T) {
	s, e := testSched(t)
	var recovered any
	th := newThread(0, func(th *Thread) {
		defer func() { recovered = recover() }()
		th.Kill("self")
	})
	s.Adopt(th)
	e.Drain()
	if recovered == nil {
		t.Fatal("killing the running thread must panic")
	}
}

// yieldAllocs runs n threads that yield in a loop on one scheduler and
// reports the allocations per Yield round trip of thread 0 (one quantum
// of every thread) in steady state.
func yieldAllocs(t *testing.T, n int) float64 {
	t.Helper()
	s, e := testSched(t)
	allocs := -1.0
	done := false
	s.Adopt(newThread(0, func(th *Thread) {
		// AllocsPerRun's warm-up call starts the other threads'
		// coroutines and sizes the queue.
		allocs = testing.AllocsPerRun(200, th.Yield)
		done = true
	}))
	for i := 1; i < n; i++ {
		s.Adopt(newThread(i, func(th *Thread) {
			for !done {
				th.Yield()
			}
		}))
	}
	e.Drain()
	if doneCount(s) != n {
		t.Fatalf("%d of %d threads finished", doneCount(s), n)
	}
	if want := uint64(201*n + n - 1); s.Switches() < want {
		t.Fatalf("%d switches, want at least %d", s.Switches(), want)
	}
	return allocs
}

func TestYieldAllocatesNothing(t *testing.T) {
	// Two threads: the queue never drains (one thread is always waiting).
	// Sixty-four: it holds a full lap of threads between any two pops.
	for _, n := range []int{2, 64} {
		if got := yieldAllocs(t, n); got != 0 {
			t.Errorf("%d threads: %v allocations per Yield round trip, want 0", n, got)
		}
	}
}

// BenchmarkSwitch is the two-thread yield ping: one op is one context
// switch (scheduler pop, cost charge, coroutine resume, park).
func BenchmarkSwitch(b *testing.B) {
	cl, err := machine.New(machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 1})
	if err != nil {
		b.Fatal(err)
	}
	s := NewScheduler(cl.PE(0), cl.Engine, cl.Cost)
	for id := 0; id < 2; id++ {
		s.Adopt(newThread(id, func(th *Thread) {
			for i := 0; i < b.N/2; i++ {
				th.Yield()
			}
		}))
	}
	b.ReportAllocs()
	b.ResetTimer()
	cl.Engine.Drain()
}
