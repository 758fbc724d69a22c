package sim

import (
	"testing"

	"provirt/internal/obs"
)

// Engine instruments must count dispatches and queue pressure — and
// vanish to a pointer comparison when disabled.
func TestEngineObsCounts(t *testing.T) {
	r := obs.NewRegistry()
	EnableObs(r)
	defer EnableObs(nil)

	e := NewEngine()
	dispatched := 0
	for i := 0; i < 8; i++ {
		e.At(Time(i+1), func() { dispatched++ })
	}
	e.Drain()
	e.At(e.Now()+1, func() { dispatched++ })
	e.Drain()

	if dispatched != 9 {
		t.Fatalf("callbacks ran %d times, want 9", dispatched)
	}
	if got := metrics.dispatched.Value(); got != 9 {
		t.Fatalf("sim_events_dispatched_total = %d, want 9", got)
	}
	if got := metrics.queueDepth.Value(); got != 8 {
		t.Fatalf("sim_queue_depth_high_water = %d, want 8", got)
	}

	EnableObs(nil)
	e2 := NewEngine()
	e2.At(1, func() {})
	e2.Drain()
	if got := metrics.dispatched.Value(); got != 0 {
		t.Fatalf("disabled metrics still counting: %d", got)
	}
}
