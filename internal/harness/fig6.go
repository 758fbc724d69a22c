package harness

import (
	"fmt"

	"provirt/internal/core"
	"provirt/internal/scenario"
	"provirt/internal/sim"
	"provirt/internal/trace"
)

// Fig6Row is one bar of Fig. 6: mean user-level thread context-switch
// time under one privatization method.
type Fig6Row struct {
	Method   core.Kind
	Switches uint64
	// PerSwitch is the mean time per ULT context switch, including
	// scheduling.
	PerSwitch sim.Time
	// OverBaseline is PerSwitch minus the no-privatization mean.
	OverBaseline sim.Time
}

// Fig6Methods are the methods the context-switch microbenchmark
// compares.
func Fig6Methods() []core.Kind {
	return []core.Kind{
		core.KindNone, core.KindSwapglobals, core.KindTLSglobals,
		core.KindPIPglobals, core.KindFSglobals, core.KindPIEglobals,
	}
}

// fig6Points is the two-ULT ping microbenchmark under each of
// Fig6Methods.
func fig6Points() []point {
	return methodPoints(Fig6Methods(), "", scenario.Spec{Machine: machineShape(1, 1, 1), VPs: 2, Workload: "ping"})
}

// Fig6ContextSwitch runs the two-ULT ping microbenchmark (100,000
// switches) for each method and reports mean switch time (Fig. 6).
func Fig6ContextSwitch(o Opts) ([]Fig6Row, *trace.Table, error) {
	methods := Fig6Methods()
	points, err := run(o, fig6Points())
	if err != nil {
		return nil, nil, fmt.Errorf("fig6: %w", err)
	}
	rows := make([]Fig6Row, len(methods))
	var baseline sim.Time
	for i, kind := range methods {
		p := points[i]
		if p.Switches == 0 {
			return nil, nil, fmt.Errorf("fig6 %s: no context switches recorded", kind)
		}
		rows[i] = Fig6Row{Method: kind, Switches: p.Switches, PerSwitch: sim.Time(p.SwitchNs) / sim.Time(p.Switches)}
		if kind == core.KindNone {
			baseline = rows[i].PerSwitch
		}
		rows[i].OverBaseline = rows[i].PerSwitch - baseline
	}
	t := trace.NewTable("Figure 6: ULT context switch time (lower is better)",
		"Method", "Switches", "ns/switch", "over baseline")
	for _, r := range rows {
		t.AddRow(r.Method.String(),
			fmt.Sprint(r.Switches),
			fmt.Sprintf("%d", r.PerSwitch.Nanoseconds()),
			fmt.Sprintf("+%dns", r.OverBaseline.Nanoseconds()))
	}
	return rows, t, nil
}
