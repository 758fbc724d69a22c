package harness

import (
	"fmt"

	"provirt/internal/core"
	"provirt/internal/scenario"
	"provirt/internal/trace"
)

// MemoryRow is one method's per-rank memory overhead for privatized
// state (beyond the application's own heap), using the ADCIRC-sized
// image. This quantifies the "code bloat issue of memory usage in
// PIEglobals" that §6's future work targets.
type MemoryRow struct {
	Method string
	// PerRankBytes is the privatization storage materialized per
	// virtual rank (segment copies, TLS blocks, private cells),
	// excluding the 1 MiB ULT stack every rank owns regardless.
	PerRankBytes uint64
}

// memoryMethods are the methods the memory experiment compares: the
// runtime methods plus PIEglobals with §6's shared code pages, alone
// and with the read-only data left copy-on-write.
var memoryMethods = []core.Kind{
	core.KindTLSglobals, core.KindPIPglobals, core.KindFSglobals, core.KindPIEglobals,
	core.KindPIEglobalsSharedCode, core.KindPIEglobalsSharedCodeCOW,
}

// memoryPoints is one rank of the ADCIRC image under each of
// memoryMethods.
func memoryPoints() []point {
	return methodPoints(memoryMethods, "", scenario.Spec{Machine: machineShape(1, 1, 1), VPs: 1, Workload: "ballast"})
}

// MemoryFootprint measures per-rank privatization memory for each of
// memoryMethods.
func MemoryFootprint(o Opts) ([]MemoryRow, *trace.Table, error) {
	points, err := run(o, memoryPoints())
	if err != nil {
		return nil, nil, fmt.Errorf("memory: %w", err)
	}
	rows := make([]MemoryRow, len(points))
	for i, kind := range memoryMethods {
		rows[i] = MemoryRow{Method: kind.String(), PerRankBytes: points[i].PrivBytes}
	}
	t := trace.NewTable("Memory: per-rank privatization footprint, ADCIRC-sized image (16 MiB segments)",
		"Method", "Per-rank bytes")
	for _, r := range rows {
		t.AddRow(r.Method, trace.FormatBytes(int64(r.PerRankBytes)))
	}
	return rows, t, nil
}
