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

	// Parallel-engine window protocol. All of these are folded in at
	// window barriers from shard-local counters, so the per-event hot
	// loop never touches a shared atomic; totals are sums and therefore
	// deterministic at any worker count.

	// windows counts conservative-window advances.
	windows *obs.Counter
	// windowEvents observes events fired per window across all domains
	// — the grain size the barrier cost amortizes over.
	windowEvents *obs.Histogram
	// domainWindowEvents observes one active domain's fired count per
	// window — the load-balance signal across domains.
	domainWindowEvents *obs.Histogram
	// crossDomainEvents counts events routed through window mailboxes.
	crossDomainEvents *obs.Counter
	// idleDomainWindows counts domain-windows spent waiting at the
	// barrier with no event under the horizon (stalls).
	idleDomainWindows *obs.Counter
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
		windows: r.Counter("sim_windows_total",
			"conservative-window advances across all parallel engines"),
		windowEvents: r.Histogram("sim_window_events",
			"events fired per conservative window (all domains)",
			obs.ExpBuckets(1, 4, 12)),
		domainWindowEvents: r.Histogram("sim_domain_window_events",
			"events fired per domain per conservative window",
			obs.ExpBuckets(1, 4, 12)),
		crossDomainEvents: r.Counter("sim_cross_domain_events_total",
			"events routed between domains through window mailboxes"),
		idleDomainWindows: r.Counter("sim_domain_idle_windows_total",
			"domain-windows stalled at the barrier with no runnable event"),
	}
}
