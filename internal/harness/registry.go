package harness

import (
	"fmt"
	"sort"

	"provirt/internal/scenario"
	"provirt/internal/sim"
	"provirt/internal/trace"
)

// RunOpts is everything a registry experiment can consume: the
// cross-cutting Opts plus the per-experiment parameters launchers
// expose as flags. Zero-valued parameters select each experiment's
// defaults, so RunOpts{} runs every experiment as `-experiment=all`
// does.
type RunOpts struct {
	Opts
	Nodes    int             // fig5's node count (<= 0 selects 1)
	Cores    []int           // table2/fig9's core counts (nil selects Table2Cores)
	MTBFs    []sim.Time      // ftsweep's MTBF list (nil selects FTSweepMTBFs)
	ScaleVPs int             // scale's rank count (<= 0 selects DefaultScaleVPs)
	Elastic  []ElasticRegime // elastic's churn regimes (nil selects ElasticRegimes)
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
	// the cross-cutting ones (parallelism, tracing, profiles).
	Flags []string `json:"flags,omitempty"`
	// Run executes the experiment.
	Run func(RunOpts) (Result, error) `json:"-"`
}

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
		Flags:       []string{"nodes"},
		Run:         func(r RunOpts) (Result, error) { return result(Fig5Startup(r.Opts, r.Nodes)) },
	},
	{
		Name:        "fig5scale",
		Description: "Fig. 5 scaling: startup time across node counts",
		Run: func(r RunOpts) (Result, error) {
			tbl, err := Fig5Scaling(r.Opts)
			return Result{Tables: []*trace.Table{tbl}}, err
		},
	},
	{
		Name:        "fig6",
		Description: "Fig. 6: context-switch overhead per privatization method",
		Run:         func(r RunOpts) (Result, error) { return result(Fig6ContextSwitch(r.Opts)) },
	},
	{
		Name:        "fig7",
		Description: "Fig. 7: privatized-variable access overhead (Jacobi-3D)",
		Run:         func(r RunOpts) (Result, error) { return result(Fig7JacobiAccess(r.Opts)) },
	},
	{
		Name:        "fig8",
		Description: "Fig. 8: migration time vs per-rank heap size",
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
		Run:         func(r RunOpts) (Result, error) { return result(MemoryFootprint(r.Opts)) },
	},
	{
		Name:        "ftsweep",
		Description: "Fault tolerance: supervised time-to-solution vs MTBF",
		Flags:       []string{"mtbf"},
		Run:         func(r RunOpts) (Result, error) { return result(FTSweep(r.Opts, r.MTBFs)) },
	},
	{
		Name:        "table2",
		Aliases:     []string{"fig9"},
		Description: "Table 2 & Fig. 9: ADCIRC strong scaling, virtualization x load balancing",
		Flags:       []string{"cores"},
		Run: func(r RunOpts) (Result, error) {
			rows, t2, f9, err := adcircScaling(r.Opts, scenario.WorkloadParams{}, r.Cores)
			return Result{Rows: rows, Tables: []*trace.Table{t2, f9}}, err
		},
	},
	{
		Name:        "scale",
		Description: "Million-VP scale: flat-world allreduce + migration storm with per-rank memory gauges",
		Flags:       []string{"vps", "sim-workers"},
		Run:         func(r RunOpts) (Result, error) { return result(ScaleExperiment(r.Opts, r.ScaleVPs)) },
	},
	{
		Name:        "elastic",
		Description: "Elastic worlds: time-to-solution and node-hours under cluster churn",
		Flags:       []string{"churn-rate", "churn-notice", "churn-seed"},
		Run:         func(r RunOpts) (Result, error) { return result(ElasticSweep(r.Opts, r.Elastic)) },
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
