package harness

import (
	"provirt/internal/ampi"
	"provirt/internal/ft"
	"provirt/internal/mem"
	"provirt/internal/obs"
	"provirt/internal/sim"
)

// EnableObs turns on host-side metrics for every instrumented runtime
// layer (sim, ampi, mem, ft), registering their instruments in r;
// EnableObs(nil) uninstalls everything.
//
// Call it only between runs: instruments are process-global and the
// install is not synchronized with running worlds. Metrics never feed
// back into virtual time, so enabling them changes no row, table, or
// trace byte (pinned by TestObsLeavesRowsAndTracesBitIdentical).
func EnableObs(r *obs.Registry) {
	sim.EnableObs(r)
	ampi.EnableObs(r)
	mem.EnableObs(r)
	ft.EnableObs(r)
}
