package sim

import "provirt/internal/obs"

// Host-side engine instruments (package obs). Instruments are
// package-level rather than per-Engine because sweeps build thousands
// of engines per second (and the flat world builds one per million-VP
// world): what the host runtime wants to know is the aggregate event
// throughput and queue pressure across all of them. All updates are
// atomic, and addition/maximum are order-independent, so aggregate
// values are deterministic at any sweep parallelism.
//
// The zero value is metrics-off: every field is a nil instrument whose
// methods cost one pointer comparison — the same discipline as the
// engine's nil trace.Tracer.
type obsMetrics struct {
	// dispatched counts events fired across all engines.
	dispatched *obs.Counter
	// queueDepth is the high-water mark of any engine's pending queue,
	// the contention signal for the heap.
	queueDepth *obs.Gauge
	// nodeReuse counts event nodes taken from a free list; nodeAllocs
	// counts nodes newly allocated. Steady state should be all reuse.
	nodeReuse  *obs.Counter
	nodeAllocs *obs.Counter
}

var metrics obsMetrics

// EnableObs registers the engine's instruments in r and turns them on
// for every engine in the process; EnableObs(nil) restores the no-op
// state. Call it only while no simulation is running — the harness
// enables metrics once, before experiments start.
func EnableObs(r *obs.Registry) {
	if r == nil {
		metrics = obsMetrics{}
		return
	}
	metrics = obsMetrics{
		dispatched: r.Counter("sim_events_dispatched_total",
			"discrete events fired across all engines"),
		queueDepth: r.Gauge("sim_queue_depth_high_water",
			"highest resident pending-queue depth seen by any engine"),
		nodeReuse: r.Counter("sim_event_node_reuse_total",
			"event nodes recycled from an engine free list"),
		nodeAllocs: r.Counter("sim_event_node_allocs_total",
			"event nodes newly allocated (free list empty)"),
	}
}
