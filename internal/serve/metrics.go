package serve

import (
	"provirt/internal/obs"
	"provirt/internal/resultstore"
)

// Package-level instruments, nil (no-op) by default per the obs
// discipline. The server is fully functional without them.
var (
	requests       *obs.Counter
	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	dedupJoins     *obs.Counter
	pointsExecuted *obs.Counter
	pointsDecoded  *obs.Counter
	pointErrors    *obs.Counter
	pointPanics    *obs.Counter
	storePutErrors *obs.Counter
	queueHighwater *obs.Gauge
	requestLatency *obs.Histogram
)

// EnableObs registers the server's instruments in r (and the result
// store's, since the two always deploy together); EnableObs(nil)
// restores the no-op state. Call before serving traffic —
// installation is not synchronized with concurrent requests.
func EnableObs(r *obs.Registry) {
	resultstore.EnableObs(r)
	if r == nil {
		requests, cacheHits, cacheMisses, pointPanics = nil, nil, nil, nil
		dedupJoins, pointsExecuted, pointErrors, storePutErrors = nil, nil, nil, nil
		pointsDecoded = nil
		queueHighwater, requestLatency = nil, nil
		return
	}
	requests = r.Counter("serve_requests_total",
		"API requests received across all /v1 endpoints")
	cacheHits = r.Counter("serve_cache_hits_total",
		"points answered from the result store without executing")
	cacheMisses = r.Counter("serve_cache_misses_total",
		"points not found in the result store on arrival")
	dedupJoins = r.Counter("serve_dedup_joins_total",
		"points that joined an identical in-flight execution instead of starting one")
	pointsExecuted = r.Counter("serve_points_executed_total",
		"simulations actually executed (misses that were not deduped)")
	pointsDecoded = r.Counter("serve_points_decoded_total",
		"request points decoded and validated (the rest were known by their bytes)")
	pointErrors = r.Counter("serve_point_errors_total",
		"point executions that returned an error")
	pointPanics = r.Counter("serve_point_panics_total",
		"point executions that panicked and were turned into an errored flight")
	storePutErrors = r.Counter("serve_store_put_errors_total",
		"results computed but not persisted (store write failed)")
	queueHighwater = r.Gauge("serve_queue_depth_highwater",
		"deepest the execution admission queue has been (requests waiting for a slot plus points running)")
	requestLatency = r.Histogram("serve_request_latency_us",
		"wall time to serve POST /v1/runs, microseconds",
		obs.ExpBuckets(100, 4, 12), obs.Volatile())
}

// Accessors for tests and launchers reporting cache effectiveness
// without scraping the registry.
func CacheHits() uint64   { return cacheHits.Value() }
func CacheMisses() uint64 { return cacheMisses.Value() }
