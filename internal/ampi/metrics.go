package ampi

import "provirt/internal/obs"

// Host-side matchqueue instruments (package obs). The match queues are
// scanned linearly, so their depth is their cost; these instruments
// show how deep they get. Instruments are package-level (worlds are
// built by the thousand per sweep) and nil by default: an
// un-instrumented match costs one pointer comparison per hook, the same
// discipline as the world's nil trace.Tracer.
type obsMetrics struct {
	// probeDepth observes the store depth at every match attempt
	// against a non-empty queue: the most entries that scan can touch.
	probeDepth *obs.Histogram
	// unexpectedDepth is the high-water depth of any rank's
	// unexpected-message queue; unexpectedTotal counts messages that
	// arrived before their receive was posted.
	unexpectedDepth *obs.Gauge
	unexpectedTotal *obs.Counter
	// flatInline and flatScheduled count the flat world's tree edges by
	// path: applied to the peer in place, or carried by the event engine
	// because they cross a lookahead domain. Added once per collective
	// from the per-domain tallies, so an edge costs no atomic.
	flatInline    *obs.Counter
	flatScheduled *obs.Counter
}

var metrics obsMetrics

// EnableObs registers the matchqueue and flat-world instruments in r
// and turns them on for every world in the process; EnableObs(nil)
// restores the no-op state. Call it only while no world is running.
func EnableObs(r *obs.Registry) {
	if r == nil {
		metrics = obsMetrics{}
		return
	}
	metrics = obsMetrics{
		probeDepth: r.Histogram("ampi_match_probe_depth",
			"matchqueue depth at each match attempt against a non-empty store",
			obs.ExpBuckets(1, 2, 10)),
		unexpectedDepth: r.Gauge("ampi_unexpected_depth_high_water",
			"highest unexpected-message queue depth seen by any rank"),
		unexpectedTotal: r.Counter("ampi_unexpected_total",
			"messages queued as unexpected (arrived before a matching receive)"),
		flatInline: r.Counter("ampi_flat_edges_inline_total",
			"flat-world tree edges applied in place (both ends in one lookahead domain)"),
		flatScheduled: r.Counter("ampi_flat_edges_scheduled_total",
			"flat-world tree edges scheduled as engine events (crossing a lookahead domain)"),
	}
}
