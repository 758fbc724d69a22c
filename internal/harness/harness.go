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

	"provirt/internal/ampi"
	"provirt/internal/core"
	"provirt/internal/machine"
	"provirt/internal/scenario"
	"provirt/internal/sim"
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
	// Trace selects exactly one sweep point of the experiment to
	// trace; nil runs untraced.
	Trace *TraceSel
	// SimWorkers is how many workers the scale experiment's flat world
	// spreads its lookahead domains across (sim.ParallelEngine), with
	// byte-identical output at every setting; 0 or 1 keeps the serial
	// engine. A goroutine world is one domain and has no such option.
	SimWorkers int
}

// run is the harness's one fan-out: Opts.Parallelism workers, the
// calling goroutine among them, take the Specs in index
// order and fill their rows in place. Every point runs even after one
// fails, and the lowest-indexed error is returned, so neither rows nor
// error depend on scheduling. It consumes specs: each one's program is
// released, like its world, as soon as its row is in hand.
func run(o Opts, specs []scenario.Spec) ([]scenario.Row, error) {
	workers := o.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rows := make([]scenario.Row, len(specs))
	errs := make([]error, len(specs))
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(specs) {
				return
			}
			sp := &specs[i]
			row, _, err := sp.Execute()
			if err != nil {
				errs[i] = fmt.Errorf("%s, %d VPs on %dx%dx%d: %w", sp.Method, sp.VPs,
					sp.Machine.Nodes, sp.Machine.ProcsPerNode, sp.Machine.PEsPerProc, err)
			} else {
				rows[i], *sp = row, scenario.Spec{}
			}
		}
	}
	var wg sync.WaitGroup
	for range min(workers, len(specs)) - 1 {
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

// TraceSel selects exactly one sweep point of an experiment to trace.
// Each experiment matches only the fields it sweeps (its registry
// entry's TraceKeys) and attaches the tracer to the single Spec that
// matches exactly. The match is a pure function of the configuration,
// never of scheduling order, so the recorded trace is byte-identical
// between serial and parallel sweeps and the untraced points run
// exactly as if no selection existed.
//
// The caller must make the selection unique for the experiment it
// runs (e.g. set Nodes when tracing inside Fig5Scaling): a selection
// that matched two concurrently-running worlds would interleave their
// events in one recorder.
type TraceSel struct {
	Method core.Kind // fig5/6/7/8, ftsweep, elastic
	Nodes  int       // fig5
	Heap   uint64    // fig8: per-rank heap size in bytes
	// Cores and Ratio select the table2/fig9 point; Ratio 1 is the
	// unvirtualized baseline.
	Cores int
	Ratio int
	// MTBF and Target select the ftsweep point, whose supervised run is
	// captured across all of its attempts; Target and Churn (the regime's
	// name) select the elastic point.
	MTBF   sim.Time
	Target ampi.CheckpointTarget
	Churn  string
	VPs    int // scale
	// Rec receives the selected point's events, retained or streamed
	// as the caller built it.
	Rec *trace.Recorder
}

// tracerFor returns the selection's recorder when match reports the
// sweep point is the selected one, else a nil Tracer; figures call it
// while building their Specs, so the attach is part of the description
// run executes.
func (o Opts) tracerFor(match func(*TraceSel) bool) trace.Tracer {
	ts := o.Trace
	if ts == nil || ts.Rec == nil || !match(ts) {
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
