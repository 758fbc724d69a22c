// Package harness regenerates every table and figure of the paper's
// evaluation (§4) from the simulation. Every figure is a list of
// scenario.Specs handed to run, arithmetic on the scenario.Rows that
// come back, and a rendered table; it returns both the structured rows
// (asserted by tests) and the table (printed by cmd/privbench, pinned
// by testdata/experiments.golden). Every experiment is an entry in the
// registry (see registry.go) so launchers enumerate and dispatch them
// uniformly. The flat world of the scale experiment is the one caller
// outside Spec.Execute (see scale.go).
//
// Experiments take an explicit Opts value instead of package-level
// state, so concurrent experiment execution is safe by construction
// and a trace selection cannot outlive the call that made it.
package harness

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"provirt/internal/core"
	"provirt/internal/machine"
	"provirt/internal/scenario"
	"provirt/internal/trace"
)

// Opts carries the cross-cutting run options every experiment
// receives. The zero value is ready to use: machine-sized sweep
// parallelism and no tracing.
type Opts struct {
	// Parallelism is how many points run concurrently. Every simulation
	// is single-threaded and a pure function of its Spec, and figures do
	// their arithmetic after the sweep, so rows and tables are
	// bit-identical at any setting; 1 is serial and values <= 0 select
	// every available core.
	Parallelism int
	// Trace selects one sweep point of the experiment to trace; nil
	// runs untraced.
	Trace *TraceSel
	// SimWorkers is read by nothing: it stays only because the
	// benchmark's sim.par2_* probe sets it, and goes with that probe
	// (ROADMAP item 9).
	SimWorkers int
}

// point is one Spec run executes and the label that names it: its
// swept values as key=value pairs, such as "cores=4,ratio=2" or
// "method=pieglobals,target=fs,churn=spot-busy".
type point struct {
	label string
	spec  scenario.Spec
}

// methodPoints is sp under each of kinds, labelled "method=<kind>" and
// then suffix.
func methodPoints(kinds []core.Kind, suffix string, sp scenario.Spec) []point {
	points := make([]point, len(kinds))
	for i, kind := range kinds {
		sp.Method = kind
		points[i] = point{"method=" + kind.String() + suffix, sp}
	}
	return points
}

// run is the harness's one fan-out: Opts.Parallelism workers, the
// calling goroutine among them, take the points in index order and
// fill their rows in place. Before any starts, it offers every label
// to the trace selection and attaches the recorder to the one selected,
// so the attach never depends on scheduling. Every point runs even
// after one fails, and the lowest-indexed error, named by its label, is
// returned, so neither rows nor error depend on scheduling. It consumes
// points: each one's program is released, like its world, as soon as
// its row is in hand.
func run(o Opts, points []point) ([]scenario.Row, error) {
	for i := range points {
		points[i].spec.Tracer = o.Trace.tracer(points[i].label)
	}
	workers := o.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rows := make([]scenario.Row, len(points))
	errs := make([]error, len(points))
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(points) {
				return
			}
			p := &points[i]
			row, _, err := p.spec.Execute()
			if err != nil {
				errs[i] = fmt.Errorf("%s: %w", p.label, err)
			} else {
				rows[i], p.spec = row, scenario.Spec{}
			}
		}
	}
	var wg sync.WaitGroup
	for range min(workers, len(points)) - 1 {
		wg.Add(1)
		go func() { defer wg.Done(); work() }()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return rows, err
		}
	}
	return rows, nil
}

// TraceSel selects one sweep point of an experiment to trace by its
// label. The match is a pure function of the configuration, never of
// scheduling order, so the recorded trace is byte-identical between
// serial and parallel sweeps and the untraced points run exactly as if
// no selection existed. An experiment's labels are unique, so the
// recorder never sees two worlds. A TraceSel serves one experiment run
// at a time.
type TraceSel struct {
	// Point is the label of the point to trace; empty selects the
	// experiment's first point.
	Point string
	// Rec receives the selected point's events, retained or streamed
	// as the caller built it.
	Rec *trace.Recorder
	// Offered lists, in order, the label of every point the experiment
	// ran, for a launcher to name them when Point matched none.
	Offered []string
}

// tracer offers label to the selection and returns its recorder when
// label is the selected point, else a nil Tracer.
func (ts *TraceSel) tracer(label string) trace.Tracer {
	if ts == nil {
		return nil
	}
	selected := label == ts.Point || ts.Point == "" && len(ts.Offered) == 0
	ts.Offered = append(ts.Offered, label)
	if ts.Rec == nil || !selected {
		return nil // never a typed nil: hooks test the interface
	}
	return ts.Rec
}

// Fig5Methods are the privatization methods the startup experiment
// compares (baseline plus AMPI's existing TLSglobals plus the paper's
// three new runtime methods).
func Fig5Methods() []core.Kind {
	return []core.Kind{
		core.KindNone, core.KindTLSglobals, core.KindPIPglobals,
		core.KindFSglobals, core.KindPIEglobals,
	}
}

// Table1 renders the feature matrix of pre-existing privatization
// methods (paper Table 1).
func Table1() *trace.Table {
	return featureTable("Table 1: existing privatization methods", core.Table1Order())
}

// Table3 renders the full feature matrix including the three novel
// runtime methods (paper Table 3).
func Table3() *trace.Table {
	return featureTable("Table 3: privatization methods including the three novel runtime methods", core.Table3Order())
}

func featureTable(title string, methods []core.Kind) *trace.Table {
	t := trace.NewTable(title, "Method", "Automation", "Portability", "SMP Mode Support", "Migration Support")
	for _, k := range methods {
		c := core.CapabilitiesOf(k)
		t.AddRow(c.DisplayName, c.Automation, c.Portability, c.SMPSupport, c.MigrationSupport)
	}
	return t
}

// machineShape is a convenience constructor.
func machineShape(nodes, procs, pes int) machine.Config {
	return machine.Config{Nodes: nodes, ProcsPerNode: procs, PEsPerProc: pes}
}

// pct formats a ratio as a percentage string.
func pct(x float64) string { return fmt.Sprintf("%+.1f%%", (x-1)*100) }
