package harness

import (
	"fmt"

	"provirt/internal/core"
	"provirt/internal/scenario"
	"provirt/internal/sim"
	"provirt/internal/trace"
	"provirt/internal/workloads/synth"
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

// Fig5Startup measures AMPI initialization time for each method with 8
// virtual ranks per process (Fig. 5). nodes controls scale; the
// dlmopen/PIE methods cost constant per process while FSglobals
// degrades with node count due to shared-filesystem contention.
func Fig5Startup(o Opts, nodes int) ([]Fig5Row, *trace.Table, error) {
	if nodes <= 0 {
		nodes = 1
	}
	methods := Fig5Methods()
	rows := make([]Fig5Row, len(methods))
	err := o.runner().Run(len(methods), func(i int) error {
		kind := methods[i]
		sp := scenario.Spec{
			Machine: machineShape(nodes, 1, 1),
			VPs:     nodes * 8, // 8x virtualization per process
			Method:  kind,
			Program: synth.Empty(),
			Tracer: o.tracerFor(func(ts *TraceSel) bool {
				return ts.Method == kind && ts.Nodes == nodes
			}),
		}
		w, err := sp.Run()
		if err != nil {
			return fmt.Errorf("fig5 %s: %w", kind, err)
		}
		rows[i] = Fig5Row{Method: kind, Startup: w.SetupDone}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	// Baseline normalization is a serial post-pass so parallel and
	// serial sweeps produce identical rows.
	var baseline sim.Time
	for i := range rows {
		if rows[i].Method == core.KindNone {
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

// Fig5Scaling shows how each method's startup responds to node count:
// §4.1's observation that "with the exception of FSglobals, which
// relies on a shared file system, the cost is constant per-process and
// does not increase with node counts".
func Fig5Scaling(o Opts, nodeCounts []int) (*trace.Table, error) {
	if len(nodeCounts) == 0 {
		nodeCounts = []int{1, 2, 4, 8}
	}
	methods := Fig5Methods()
	headers := []string{"Method"}
	for _, n := range nodeCounts {
		headers = append(headers, fmt.Sprintf("%d node(s)", n))
	}
	t := trace.NewTable("Figure 5 (scaling): startup vs node count, 8x virtualization", headers...)
	perNode := make([][]Fig5Row, len(nodeCounts))
	err := o.runner().Run(len(nodeCounts), func(i int) error {
		// The inner sweep runs serially: the outer fan-out already
		// saturates the workers, and nesting parallel runners would
		// oversubscribe without changing any output.
		rows, _, err := Fig5Startup(Opts{Parallelism: 1, Trace: o.Trace, Progress: o.Progress}, nodeCounts[i])
		perNode[i] = rows
		return err
	})
	if err != nil {
		return nil, err
	}
	cells := make(map[core.Kind][]string, len(methods))
	for _, rows := range perNode {
		for _, r := range rows {
			cells[r.Method] = append(cells[r.Method], trace.FormatDuration(r.Startup))
		}
	}
	for _, m := range methods {
		t.AddRow(append([]string{m.String()}, cells[m]...)...)
	}
	return t, nil
}
