package resultstore

import "provirt/internal/obs"

// Package-level instruments, nil (no-op) by default, following the obs
// discipline: an un-instrumented store pays one pointer comparison per
// hook site.
var (
	evictions *obs.Counter
	corrupt   *obs.Counter
	puts      *obs.Counter
	syncs     *obs.Counter
)

// EnableObs registers the store's instruments in r; EnableObs(nil)
// restores the no-op state. Call between requests/runs — installation
// is not synchronized with concurrent store use.
func EnableObs(r *obs.Registry) {
	if r == nil {
		evictions, corrupt, puts, syncs = nil, nil, nil, nil
		return
	}
	evictions = r.Counter("resultstore_evictions_total",
		"payloads evicted from the in-memory LRU (their records stay in the log)")
	corrupt = r.Counter("resultstore_corrupt_skipped_total",
		"log records skipped or refused because the header, length, or checksum failed verification")
	puts = r.Counter("resultstore_puts_total",
		"record appends (one write each; concurrent ones share an fsync), failed ones included")
	syncs = r.Counter("resultstore_syncs_total",
		"log fsyncs, failed ones included: each covers every record written before it began")
}

// Evictions exposes the counter for launchers that report cache health
// without scraping the registry.
func Evictions() uint64 { return evictions.Value() }
