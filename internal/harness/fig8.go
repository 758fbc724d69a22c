package harness

import (
	"fmt"

	"provirt/internal/core"
	"provirt/internal/lb"
	"provirt/internal/scenario"
	"provirt/internal/sim"
	"provirt/internal/trace"
)

// Fig8Row is one point of Fig. 8: time to migrate one virtual rank
// with the given heap size, under TLSglobals vs PIEglobals.
type Fig8Row struct {
	HeapBytes uint64
	TLSTime   sim.Time
	PIETime   sim.Time
	TLSBytes  uint64
	PIEBytes  uint64
}

// Fig8HeapSizes are the swept per-rank heap sizes (the paper sweeps
// 1 MB to 100 MB).
func Fig8HeapSizes() []uint64 {
	return []uint64{1 << 20, 4 << 20, 16 << 20, 64 << 20, 100 << 20}
}

// fig8Points is the (heap size x method) grid, TLSglobals then
// PIEglobals at each size: one rank on a two-node machine, migrated
// once.
func fig8Points() []point {
	var points []point
	kinds := []core.Kind{core.KindTLSglobals, core.KindPIEglobals}
	for _, heap := range Fig8HeapSizes() {
		points = append(points, methodPoints(kinds, fmt.Sprintf(",heap=%d", heap), scenario.Spec{
			Machine: machineShape(2, 1, 1), VPs: 1, Balancer: lb.RotateLB{},
			Workload: "ballast", WorkloadParams: scenario.WorkloadParams{HeapBytes: heap},
		})...)
	}
	return points
}

// Fig8Migration measures single-rank migration time across node
// boundaries as heap size grows, comparing TLSglobals (rank state only)
// with PIEglobals (rank state plus the ADCIRC-sized 14 MB code segment
// and data segment), reproducing Fig. 8.
func Fig8Migration(o Opts) ([]Fig8Row, *trace.Table, error) {
	points, err := run(o, fig8Points())
	if err != nil {
		return nil, nil, fmt.Errorf("fig8: %w", err)
	}
	var rows []Fig8Row
	for i, heap := range Fig8HeapSizes() {
		tls, pie := points[i*2], points[i*2+1]
		for _, p := range []scenario.Row{tls, pie} {
			if p.Migrations != 1 {
				return nil, nil, fmt.Errorf("fig8 %s heap=%d: %d migrations recorded, want 1", p.Method, heap, p.Migrations)
			}
		}
		rows = append(rows, Fig8Row{
			HeapBytes: heap,
			TLSTime:   sim.Time(tls.LastMigrationNs), PIETime: sim.Time(pie.LastMigrationNs),
			TLSBytes: tls.LastMigrationBytes, PIEBytes: pie.LastMigrationBytes,
		})
	}
	t := trace.NewTable("Figure 8: migration time vs per-rank heap size (lower is better)",
		"Heap", "TLSglobals", "PIEglobals", "PIE/TLS", "PIE extra bytes")
	for _, r := range rows {
		t.AddRow(trace.FormatBytes(int64(r.HeapBytes)),
			trace.FormatDuration(r.TLSTime),
			trace.FormatDuration(r.PIETime),
			fmt.Sprintf("%.2fx", float64(r.PIETime)/float64(r.TLSTime)),
			trace.FormatBytes(int64(r.PIEBytes-r.TLSBytes)))
	}
	return rows, t, nil
}
