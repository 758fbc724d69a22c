package harness

import (
	"fmt"

	"provirt/internal/core"
	"provirt/internal/scenario"
	"provirt/internal/sim"
	"provirt/internal/trace"
	"provirt/internal/workloads/jacobi"
)

// Fig7Row is one bar of Fig. 7: Jacobi-3D execution time with all
// inner-loop variables privatized under one method.
type Fig7Row struct {
	Method core.Kind
	Time   sim.Time
	// VsBaseline is Time / unprivatized time.
	VsBaseline float64
}

// Fig7Methods are the methods compared in the privatized-variable-
// access experiment.
func Fig7Methods() []core.Kind { return Fig5Methods() }

// Fig7JacobiAccess runs Jacobi-3D with every inner-loop variable
// privatized and compares execution time across methods (Fig. 7). One
// rank per PE isolates access cost from scheduling effects, matching
// the paper's experimental intent.
func Fig7JacobiAccess(o Opts) ([]Fig7Row, *trace.Table, error) {
	cfg := jacobi.Config{NX: 32, NY: 32, NZ: 32, Iters: 20, AccessesPerCell: 6, FlopsPerCell: 8}
	methods := Fig7Methods()
	specs := make([]point, len(methods))
	for i, kind := range methods {
		specs[i] = point{"method=" + kind.String(), scenario.Spec{
			Machine: machineShape(1, 1, 4),
			VPs:     4,
			Method:  kind,
			Program: jacobi.New(cfg, nil),
		}}
	}
	points, err := run(o, specs)
	if err != nil {
		return nil, nil, fmt.Errorf("fig7: %w", err)
	}
	rows := make([]Fig7Row, len(methods))
	var baseline sim.Time
	for i, kind := range methods {
		rows[i] = Fig7Row{Method: kind, Time: sim.Time(points[i].ExecNs)}
		if kind == core.KindNone {
			baseline = rows[i].Time
		}
		if baseline > 0 {
			rows[i].VsBaseline = float64(rows[i].Time) / float64(baseline)
		}
	}
	t := trace.NewTable("Figure 7: Jacobi-3D execution time, privatized inner-loop variables (lower is better)",
		"Method", "Execution time", "vs baseline")
	for _, r := range rows {
		t.AddRow(r.Method.String(), trace.FormatDuration(r.Time), pct(r.VsBaseline))
	}
	return rows, t, nil
}
