package ft

import "provirt/internal/obs"

// Host-side supervisor instruments (package obs). A sweep full of
// supervised jobs recovers from hundreds of injected crashes; these
// counters expose the aggregate resilience cost — how often recovery
// ran and how much virtual work it threw away — without touching the
// per-run Report. Nil by default; updates are atomic so parallel
// sweep points share them.
type obsMetrics struct {
	// recoveries counts crashes the supervisor recovered from;
	// shrinks counts the subset that dropped the failed node instead
	// of using a spare.
	recoveries *obs.Counter
	shrinks    *obs.Counter
	// reworkNS accumulates virtual nanoseconds of work crashes threw
	// away (snapshot-to-crash distance per recovery).
	reworkNS *obs.Counter
	// restoredBytes accumulates snapshot volume restarts read back.
	restoredBytes *obs.Counter
	// epochs counts cluster membership transitions the supervisor
	// executed (arrivals + evictions); drains counts the graceful drain
	// checkpoints taken ahead of planned departures.
	epochs *obs.Counter
	drains *obs.Counter
	// rebalanceMoves counts ranks the expand/shrink placements moved.
	rebalanceMoves *obs.Counter
	// nodeNS sums the virtual node-nanoseconds that supervised jobs
	// with a fault or churn plan consumed — the cost axis of the elastic
	// experiment. A sum, not the last job's value, so a sweep's total is
	// the same at any parallelism; a job with empty plans, as every
	// point without faults or churn is, adds nothing.
	nodeNS *obs.Counter
}

var metrics obsMetrics

// EnableObs registers the supervisor instruments in r and turns them
// on; EnableObs(nil) restores the no-op state. Call it only while no
// supervised job is running.
func EnableObs(r *obs.Registry) {
	if r == nil {
		metrics = obsMetrics{}
		return
	}
	metrics = obsMetrics{
		recoveries: r.Counter("ft_recoveries_total",
			"node crashes the supervisor recovered from"),
		shrinks: r.Counter("ft_shrink_recoveries_total",
			"recoveries that shrank onto survivors instead of using a spare"),
		reworkNS: r.Counter("ft_rework_virtual_ns_total",
			"virtual nanoseconds of work lost to crashes (rework)"),
		restoredBytes: r.Counter("ft_restored_bytes_total",
			"checkpoint bytes restarts read back"),
		epochs: r.Counter("ft_membership_epochs_total",
			"cluster membership transitions elastic supervisors executed"),
		drains: r.Counter("ft_drain_checkpoints_total",
			"graceful drain checkpoints taken ahead of planned departures"),
		rebalanceMoves: r.Counter("ft_rebalance_moves_total",
			"ranks moved by expand/shrink placement recomputation"),
		nodeNS: r.Counter("ft_elastic_node_virtual_ns_total",
			"virtual node-nanoseconds supervised jobs with a fault or churn plan consumed"),
	}
}
