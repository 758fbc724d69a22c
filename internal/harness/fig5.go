package harness

import (
	"fmt"

	"provirt/internal/core"
	"provirt/internal/scenario"
	"provirt/internal/sim"
	"provirt/internal/trace"
)

// Fig5Row is one bar of Fig. 5: startup/initialization time for one
// privatization method at 8x virtualization.
type Fig5Row struct {
	Method core.Kind
	// Startup is the job's initialization time (slowest process).
	Startup sim.Time
	// VsBaseline is Startup / baseline Startup.
	VsBaseline float64
}

// fig5Points is one node count's points: every method with 8 virtual
// ranks per process.
func fig5Points(nodes int) []point {
	return methodPoints(Fig5Methods(), fmt.Sprintf(",nodes=%d", nodes),
		scenario.Spec{Machine: machineShape(nodes, 1, 1), VPs: nodes * 8, Workload: "empty"})
}

// Fig5Startup measures AMPI initialization time for each method with 8
// virtual ranks per process (Fig. 5). nodes controls scale; the
// dlmopen/PIE methods cost constant per process while FSglobals
// degrades with node count due to shared-filesystem contention.
func Fig5Startup(o Opts, nodes int) ([]Fig5Row, *trace.Table, error) {
	points, err := run(o, fig5Points(nodes))
	if err != nil {
		return nil, nil, fmt.Errorf("fig5: %w", err)
	}
	methods := Fig5Methods()
	rows := make([]Fig5Row, len(methods))
	var baseline sim.Time
	for i, kind := range methods {
		rows[i] = Fig5Row{Method: kind, Startup: sim.Time(points[i].SetupNs)}
		if kind == core.KindNone {
			baseline = rows[i].Startup
		}
		if baseline > 0 {
			rows[i].VsBaseline = float64(rows[i].Startup) / float64(baseline)
		}
	}
	t := trace.NewTable(
		fmt.Sprintf("Figure 5: startup overhead, 8x virtualization, %d node(s) (lower is better)", nodes),
		"Method", "Startup", "vs baseline")
	for _, r := range rows {
		t.AddRow(r.Method.String(), trace.FormatDuration(r.Startup), pct(r.VsBaseline))
	}
	return rows, t, nil
}

// fig5ScaleNodes are the node counts Fig5Scaling sweeps.
var fig5ScaleNodes = []int{1, 2, 4, 8}

// Fig5Scaling shows how each method's startup responds to node count:
// §4.1's observation that "with the exception of FSglobals, which
// relies on a shared file system, the cost is constant per-process and
// does not increase with node counts", at 1, 2, 4 and 8 nodes.
func Fig5Scaling(o Opts) (*trace.Table, error) {
	methods := Fig5Methods()
	headers := []string{"Method"}
	var all []point
	for _, n := range fig5ScaleNodes {
		headers = append(headers, fmt.Sprintf("%d node(s)", n))
		all = append(all, fig5Points(n)...)
	}
	points, err := run(o, all)
	if err != nil {
		return nil, fmt.Errorf("fig5scale: %w", err)
	}
	t := trace.NewTable("Figure 5 (scaling): startup vs node count, 8x virtualization", headers...)
	for mi, m := range methods {
		cells := []string{m.String()}
		for ni := range fig5ScaleNodes {
			cells = append(cells, trace.FormatDuration(sim.Time(points[ni*len(methods)+mi].SetupNs)))
		}
		t.AddRow(cells...)
	}
	return t, nil
}
