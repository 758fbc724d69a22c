package harness

import (
	"fmt"

	"provirt/internal/ampi"
	"provirt/internal/core"
	"provirt/internal/scenario"
	"provirt/internal/trace"
	"provirt/internal/workloads/adcirc"
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

// MemoryFootprint measures per-rank privatization memory for each
// runtime method plus PIEglobals with §6's shared-code-pages
// optimization.
func MemoryFootprint(o Opts) ([]MemoryRow, *trace.Table, error) {
	// Each point has its own method instance and image, so concurrent
	// points never share mutable state.
	variants := []struct {
		name   string
		method *core.Method
	}{
		{"tlsglobals", core.New(core.KindTLSglobals)},
		{"pipglobals", core.New(core.KindPIPglobals)},
		{"fsglobals", core.New(core.KindFSglobals)},
		{"pieglobals", core.New(core.KindPIEglobals)},
		{"pieglobals+sharedcode", core.NewPIEglobals(core.PIEOptions{ShareCodePages: true})},
		{"pieglobals+sharedcode+cow", core.NewPIEglobals(core.PIEOptions{ShareCodePages: true, ShareROData: true})},
	}
	specs := make([]point, len(variants))
	for i, v := range variants {
		specs[i] = point{"method=" + v.name, scenario.Spec{
			Machine:    machineShape(1, 1, 1),
			VPs:        1,
			MethodImpl: v.method,
			Program:    &ampi.Program{Image: adcirc.Image(), Main: func(r *ampi.Rank) {}},
		}}
	}
	points, err := run(o, specs)
	if err != nil {
		return nil, nil, fmt.Errorf("memory: %w", err)
	}
	rows := make([]MemoryRow, len(variants))
	for i, v := range variants {
		rows[i] = MemoryRow{Method: v.name, PerRankBytes: points[i].PrivBytes}
	}
	t := trace.NewTable("Memory: per-rank privatization footprint, ADCIRC-sized image (16 MiB segments)",
		"Method", "Per-rank bytes")
	for _, r := range rows {
		t.AddRow(r.Method, trace.FormatBytes(int64(r.PerRankBytes)))
	}
	return rows, t, nil
}
