package sim

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// TestEngineSteadyStateAllocs pins the engine's central performance
// contract: once the queue has grown, scheduling and firing events
// allocates nothing. The queue holds events by value, At passes its
// func to a shared trampoline and AtCall its argument through an
// interface (neither a func nor a pointer in an `any` allocates). A
// regression here multiplies across the millions of events a scale run
// fires.
func TestEngineSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	var fired int
	fn := func() { fired++ }
	call := func(any) { fired++ }
	arg := &fired

	// Warm up: grow the queue.
	for i := 0; i < 64; i++ {
		e.At(e.Now()+1, fn)
		e.AtCall(e.Now()+1, call, arg)
	}
	e.Drain()

	allocs := testing.AllocsPerRun(1000, func() {
		e.At(e.Now()+1, fn)
		e.AtCall(e.Now()+2, call, arg)
		e.Step()
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("steady-state At/AtCall/Step allocates %.1f objects per run, want 0", allocs)
	}
	if fired == 0 {
		t.Fatal("no events fired")
	}
}

// TestEngineReserveAllocs pins that Reserve makes even the FIRST wave
// of scheduling allocation-free: the queue is sized up front.
func TestEngineReserveAllocs(t *testing.T) {
	e := NewEngine()
	e.Reserve(256)
	var fired int
	call := func(any) { fired++ }
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 256; i++ {
			e.AtCall(e.Now()+Time(i+1), call, &fired)
		}
		e.Drain()
	})
	if allocs != 0 {
		t.Errorf("post-Reserve first wave allocates %.1f objects per run, want 0", allocs)
	}
	// AllocsPerRun invokes the body once extra to warm up.
	if fired == 0 || fired%256 != 0 {
		t.Fatalf("fired %d events, want a multiple of 256", fired)
	}
}

// TestRecycledEngineAllocs pins Recycle's two promises: the engine that
// recycled keeps its clock and event count, and an engine built after it
// schedules its first wave on the recycled queue without allocating.
func TestRecycledEngineAllocs(t *testing.T) {
	// A collection empties the pool the queue waits in.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var fired int
	call := func(any) { fired++ }
	wave := func(e *Engine) {
		for i := 0; i < 256; i++ {
			e.AtCall(e.Now()+Time(i+1), call, &fired)
		}
		e.Drain()
	}
	first := NewEngine()
	wave(first)
	now, events := first.Now(), first.EventsFired()
	first.Recycle()
	if first.Now() != now || first.EventsFired() != events {
		t.Fatalf("after Recycle: Now %v, EventsFired %d; before: %v, %d",
			first.Now(), first.EventsFired(), now, events)
	}

	next := NewEngine()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	wave(next)
	runtime.ReadMemStats(&after)
	if mallocs := after.Mallocs - before.Mallocs; mallocs != 0 && !raceEnabled {
		t.Errorf("first wave on a recycled queue made %d mallocs, want 0", mallocs)
	}

	// The recycled engine still runs: a later event starts a new queue.
	first.At(first.Now()+1, func() { fired = -1 })
	first.Drain()
	if fired != -1 || first.EventsFired() != events+1 || first.Now() != now+1 {
		t.Fatalf("event after Recycle: fired %d, EventsFired %d, Now %v", fired, first.EventsFired(), first.Now())
	}
}

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool
