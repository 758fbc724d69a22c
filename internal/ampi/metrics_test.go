package ampi

import (
	"testing"

	"provirt/internal/machine"
	"provirt/internal/obs"
)

// Matchqueue instruments: unexpected arrivals raise the depth
// high-water, and probe depths land in the histogram.
func TestMatchqueueObsCounts(t *testing.T) {
	r := obs.NewRegistry()
	EnableObs(r)
	defer EnableObs(nil)

	var s msgStore
	// Every add is an "unexpected" arrival.
	n := 24
	msgs := make([]message, n)
	for i := 0; i < n; i++ {
		msgs[i] = message{src: i, tag: 7}
		s.add(&msgs[i])
	}
	if got := metrics.unexpectedTotal.Value(); got != uint64(n) {
		t.Fatalf("ampi_unexpected_total = %d, want %d", got, n)
	}
	if got := metrics.unexpectedDepth.Value(); got != int64(n) {
		t.Fatalf("ampi_unexpected_depth_high_water = %d, want %d", got, n)
	}

	// Drain: each take against a non-empty store observes its depth.
	before := metrics.probeDepth.Count()
	for i := 0; i < n; i++ {
		q := &Request{src: i, tag: 7}
		if m := s.take(q); m == nil {
			t.Fatalf("take(%d) found nothing", i)
		}
	}
	if got := metrics.probeDepth.Count() - before; got != uint64(n) {
		t.Fatalf("probe depth observations = %d, want %d", got, n)
	}
}

// Flat-world instruments: every tree edge of a collective is counted
// once, on the path it took, so the two counters sum to the modelled
// arrivals and the scheduled one equals what the engine dispatched.
func TestFlatEdgeObsCounts(t *testing.T) {
	r := obs.NewRegistry()
	EnableObs(r)
	defer EnableObs(nil)

	w := oracleWorld(t, machine.Config{Nodes: 4, ProcsPerNode: 2, PEsPerProc: 2}, 1000)
	for range 2 {
		if _, err := w.Allreduce(8); err != nil {
			t.Fatal(err)
		}
	}
	inline, scheduled := metrics.flatInline.Value(), metrics.flatScheduled.Value()
	if inline == 0 || scheduled == 0 {
		t.Fatalf("a path went uncounted: inline %d, scheduled %d", inline, scheduled)
	}
	if got := inline + scheduled; got != w.EventsFired() || got != 2*2*(1000-1) {
		t.Fatalf("inline %d + scheduled %d = %d, world modelled %d arrivals", inline, scheduled, got, w.EventsFired())
	}
	if scheduled != w.Dispatches() {
		t.Fatalf("ampi_flat_edges_scheduled_total = %d, engine dispatched %d", scheduled, w.Dispatches())
	}
}
