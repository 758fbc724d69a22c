package harness

import (
	"fmt"

	"provirt/internal/core"
	"provirt/internal/scenario"
	"provirt/internal/sim"
	"provirt/internal/trace"
)

// Fig7Row is one bar of Fig. 7: Jacobi-3D execution time with all
// inner-loop variables privatized under one method.
type Fig7Row struct {
	Method core.Kind
	Time   sim.Time
	// VsBaseline is Time / unprivatized time.
	VsBaseline float64
}

// fig7Points is a 32³ Jacobi-3D, 20 sweeps, under each of Fig5Methods.
// One rank per PE isolates access cost from scheduling effects,
// matching the paper's experimental intent.
func fig7Points() []point {
	return methodPoints(Fig5Methods(), "", scenario.Spec{Machine: machineShape(1, 1, 4), VPs: 4,
		Workload: "jacobi", WorkloadParams: scenario.WorkloadParams{Grid: 32, Iters: 20}})
}

// Fig7JacobiAccess runs Jacobi-3D with every inner-loop variable
// privatized and compares execution time across methods (Fig. 7).
func Fig7JacobiAccess(o Opts) ([]Fig7Row, *trace.Table, error) {
	methods := Fig5Methods()
	points, err := run(o, fig7Points())
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
