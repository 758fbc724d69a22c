// Package harness regenerates every table and figure of the paper's
// evaluation (§4) from the simulation. Each experiment returns both
// structured rows (asserted by tests) and a formatted table (printed by
// cmd/privbench, pinned by testdata/experiments.golden), and every
// experiment is an entry in the registry (see registry.go) so launchers
// can enumerate and dispatch them uniformly.
//
// Experiments take an explicit Opts value — sweep parallelism and the
// optional trace selection — instead of package-level state, so
// concurrent experiment execution is safe by construction and a trace
// selection cannot outlive the call that made it.
package harness

import (
	"fmt"
	"runtime"

	"provirt/internal/ampi"
	"provirt/internal/core"
	"provirt/internal/harness/sweep"
	"provirt/internal/machine"
	"provirt/internal/obs"
	"provirt/internal/sim"
	"provirt/internal/trace"
)

// Opts carries the cross-cutting run options every experiment
// receives. The zero value is ready to use: machine-sized sweep
// parallelism and no tracing.
type Opts struct {
	// Parallelism is how many independent simulations the sweep
	// experiments run concurrently. Every simulation is
	// single-threaded and a pure function of its configuration, and
	// result assembly is a serial post-pass, so rows and tables are
	// bit-identical at any setting; 1 forces serial execution and
	// values <= 0 select every available core.
	Parallelism int
	// Trace selects exactly one sweep point of the experiment to
	// trace; nil runs untraced.
	Trace *TraceSel
	// Progress, if non-nil, receives sweep lifecycle callbacks (points
	// scheduled and completed, host wall time per point) for live
	// progress reporting. Progress observes the host runtime only:
	// rows, tables, and traces are bit-identical with or without it.
	Progress *obs.Progress
	// SimWorkers is the intra-world event-loop parallelism: how many
	// workers a single simulated world may spread its lookahead
	// domains across (sim.ParallelEngine). Rows, tables, and traces
	// are byte-identical at every setting — the conservative-window
	// protocol fires events in the same (time, domain, seq) total
	// order the serial engine uses. Only the scale experiment (the
	// flat world) reads it: a goroutine world is one lookahead domain
	// and has no such option. 0 or 1 keeps the serial engine.
	SimWorkers int
}

// Workers resolves the effective sweep parallelism.
func (o Opts) Workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// runner returns the sweep runner the experiments fan out with,
// wiring the progress tracker to the runner's completion hooks.
func (o Opts) runner() sweep.Runner {
	r := sweep.Runner{Workers: o.Workers()}
	if p := o.Progress; p != nil {
		r.OnStart = p.StartSweep
		r.OnPoint = func(d sweep.PointDone) { p.Point(d.Worker, d.Elapsed) }
	}
	return r
}

// TraceSel selects exactly one sweep point of an experiment to trace.
// Each experiment matches only the fields it sweeps — Fig5Startup
// matches (Method, Nodes), Fig6/Fig7 match Method, Fig8 matches
// (Method, Heap), AdcircScaling matches (Cores, Ratio), FTSweep
// matches (Method, MTBF, Target) — and attaches Rec to the single
// world whose configuration matches exactly. Because the match is a
// pure function of the configuration (never of scheduling order), the
// recorded trace is byte-identical between serial and parallel
// sweeps, and the untraced worlds of the sweep run exactly as if no
// selection existed.
//
// The caller must make the selection unique for the experiment it
// runs (e.g. set Nodes when tracing inside Fig5Scaling): a selection
// that matched two concurrently-running worlds would interleave their
// events in one recorder.
type TraceSel struct {
	// Method selects the privatization method (fig5/6/7/8).
	Method core.Kind
	// Nodes selects the node count (fig5).
	Nodes int
	// Heap selects the per-rank heap size in bytes (fig8).
	Heap uint64
	// Cores and Ratio select the scaling point (table2/fig9); Ratio 1
	// is the unvirtualized baseline.
	Cores int
	Ratio int
	// MTBF and Target select the fault-tolerance sweep point (ftsweep
	// matches Method, MTBF, and Target); the recorder then captures the
	// selected point's supervised run across all of its attempts.
	MTBF   sim.Time
	Target ampi.CheckpointTarget
	// VPs selects the rank count (scale).
	VPs int
	// Churn selects the elastic churn regime by name (elastic matches
	// Method, Target, and Churn).
	Churn string
	// Rec receives the selected world's events.
	Rec *trace.Recorder
	// Sink, consulted when Rec is nil, receives the selected world's
	// events through an arbitrary Tracer — a trace.WindowWriter for
	// runs whose event volume must not be buffered in memory (the
	// million-rank scale experiment).
	Sink trace.Tracer
}

// tracerFor returns the selection's tracer when match reports the
// sweep point is the selected one, else a nil Tracer. An in-memory
// recorder takes precedence; otherwise the streaming sink is used.
func (o Opts) tracerFor(match func(*TraceSel) bool) trace.Tracer {
	ts := o.Trace
	if ts == nil || (ts.Rec == nil && ts.Sink == nil) || !match(ts) {
		return nil
	}
	if ts.Rec != nil {
		return ts.Rec
	}
	return ts.Sink
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
	t := trace.NewTable("Table 1: existing privatization methods",
		"Method", "Automation", "Portability", "SMP Mode Support", "Migration Support")
	for _, k := range core.Table1Order() {
		c := core.CapabilitiesOf(k)
		t.AddRow(c.DisplayName, c.Automation, c.Portability, c.SMPSupport, c.MigrationSupport)
	}
	return t
}

// Table3 renders the full feature matrix including the three novel
// runtime methods (paper Table 3).
func Table3() *trace.Table {
	t := trace.NewTable("Table 3: privatization methods including the three novel runtime methods",
		"Method", "Automation", "Portability", "SMP Mode Support", "Migration Support")
	for _, k := range core.Table3Order() {
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
