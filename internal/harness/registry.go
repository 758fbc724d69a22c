package harness

import (
	"fmt"
	"sort"

	"provirt/internal/scenario"
	"provirt/internal/trace"
)

// RunOpts is everything a registry experiment can consume: the
// cross-cutting Opts plus scale's rank count, the one figure parameter
// a launcher exposes as a flag. Every other figure runs at its
// published shape; a point off a figure is a Spec document. RunOpts{}
// runs every experiment as `-experiment=all` does.
type RunOpts struct {
	Opts
	ScaleVPs int // scale's rank count (<= 0 selects DefaultScaleVPs)
}

// Result is what a registry experiment produced: the structured rows
// (experiment-specific slice type; nil for the static tables) and the
// formatted tables a launcher prints in order.
type Result struct {
	Rows   any
	Tables []*trace.Table
}

// result packs a figure's (rows, table, error) return into a Result.
func result[R any](rows R, tbl *trace.Table, err error) (Result, error) {
	return Result{Rows: rows, Tables: []*trace.Table{tbl}}, err
}

// Experiment is one registry entry: a named, self-describing wrapper
// around a harness experiment. Its JSON is what GET /v1/experiments
// lists.
type Experiment struct {
	// Name is the canonical `-experiment=` value; Aliases are accepted
	// equivalents (fig9 for table2).
	Name    string   `json:"name"`
	Aliases []string `json:"aliases,omitempty"`
	// Description is the one-line summary `-experiment=list` prints.
	Description string `json:"description"`
	// Flags names the launcher flags the experiment consumes beyond
	// the ones every experiment reads (metrics and host profiles):
	// sweepFlags for one that fans Spec points out, traceFlags for one
	// that traces its single world, and its own figure parameters.
	Flags []string `json:"flags,omitempty"`
	// Run executes the experiment.
	Run func(RunOpts) (Result, error) `json:"-"`
}

// traceFlags select and record one of an experiment's points;
// sweepFlags add the width of the fan-out that runs them.
var (
	traceFlags = []string{"trace", "trace-format", "trace-point", "profile-ranks"}
	sweepFlags = append([]string{"parallel"}, traceFlags...)
)

// registry holds every experiment in `-experiment=all` execution
// order.
var registry = []Experiment{
	{
		Name:        "tables",
		Description: "Tables 1 & 3: privatization method feature matrices",
		Run: func(RunOpts) (Result, error) {
			return Result{Tables: []*trace.Table{Table1(), Table3()}}, nil
		},
	},
	{
		Name:        "fig5",
		Description: "Fig. 5: startup time per privatization method at one node count",
		Flags:       sweepFlags,
		Run:         func(r RunOpts) (Result, error) { return result(Fig5Startup(r.Opts, 1)) },
	},
	{
		Name:        "fig5scale",
		Description: "Fig. 5 scaling: startup time across node counts",
		Flags:       sweepFlags,
		Run: func(r RunOpts) (Result, error) {
			tbl, err := Fig5Scaling(r.Opts)
			return Result{Tables: []*trace.Table{tbl}}, err
		},
	},
	{
		Name:        "fig6",
		Description: "Fig. 6: context-switch overhead per privatization method",
		Flags:       sweepFlags,
		Run:         func(r RunOpts) (Result, error) { return result(Fig6ContextSwitch(r.Opts)) },
	},
	{
		Name:        "fig7",
		Description: "Fig. 7: privatized-variable access overhead (Jacobi-3D)",
		Flags:       sweepFlags,
		Run:         func(r RunOpts) (Result, error) { return result(Fig7JacobiAccess(r.Opts)) },
	},
	{
		Name:        "fig8",
		Description: "Fig. 8: migration time vs per-rank heap size",
		Flags:       sweepFlags,
		Run:         func(r RunOpts) (Result, error) { return result(Fig8Migration(r.Opts)) },
	},
	{
		Name:        "icache",
		Description: "§4.5: L1 instruction-cache misses, TLSglobals vs PIEglobals",
		Run: func(RunOpts) (Result, error) {
			rows, tbl := ICacheExperiment()
			return Result{Rows: rows, Tables: []*trace.Table{tbl}}, nil
		},
	},
	{
		Name:        "memory",
		Description: "§6: per-rank privatization memory footprint (ADCIRC image)",
		Flags:       sweepFlags,
		Run:         func(r RunOpts) (Result, error) { return result(MemoryFootprint(r.Opts)) },
	},
	{
		Name:        "ftsweep",
		Description: "Fault tolerance: supervised time-to-solution vs MTBF",
		Flags:       sweepFlags,
		Run:         func(r RunOpts) (Result, error) { return result(FTSweep(r.Opts, nil)) },
	},
	{
		Name:        "table2",
		Aliases:     []string{"fig9"},
		Description: "Table 2 & Fig. 9: ADCIRC strong scaling, virtualization x load balancing",
		Flags:       sweepFlags,
		Run: func(r RunOpts) (Result, error) {
			rows, t2, f9, err := adcircScaling(r.Opts, scenario.WorkloadParams{}, nil)
			return Result{Rows: rows, Tables: []*trace.Table{t2, f9}}, err
		},
	},
	{
		Name:        "scale",
		Description: "Million-VP scale: flat-world allreduce + migration storm with per-rank memory gauges",
		Flags:       append([]string{"vps"}, traceFlags...),
		Run:         func(r RunOpts) (Result, error) { return result(ScaleExperiment(r.Opts, r.ScaleVPs)) },
	},
	{
		Name:        "elastic",
		Description: "Elastic worlds: time-to-solution and node-hours under cluster churn",
		Flags:       sweepFlags,
		Run:         func(r RunOpts) (Result, error) { return result(ElasticSweep(r.Opts, nil)) },
	},
}

// Experiments returns every registry entry in `-experiment=all`
// execution order.
func Experiments() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// LookupExperiment resolves a name or alias to its entry.
func LookupExperiment(name string) (Experiment, bool) {
	for _, e := range registry {
		if e.Name == name {
			return e, true
		}
		for _, a := range e.Aliases {
			if a == name {
				return e, true
			}
		}
	}
	return Experiment{}, false
}

// ExperimentNames returns every canonical name plus aliases, sorted,
// for flag help and error messages.
func ExperimentNames() []string {
	var names []string
	for _, e := range registry {
		names = append(names, e.Name)
		names = append(names, e.Aliases...)
	}
	sort.Strings(names)
	return names
}

// init sanity-checks the registry: duplicate names or aliases are a
// programming error worth failing fast on.
func init() {
	seen := map[string]bool{}
	for _, e := range registry {
		for _, n := range append([]string{e.Name}, e.Aliases...) {
			if seen[n] {
				panic(fmt.Sprintf("harness: duplicate experiment name %q", n))
			}
			seen[n] = true
		}
	}
}
