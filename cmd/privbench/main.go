// Command privbench regenerates every table and figure from the
// paper's evaluation section (§4).
//
// Usage:
//
//	privbench -experiment=list
//	privbench -experiment=all
//	privbench -experiment=fig5scale
//	privbench -experiment=scale -vps 65536
//	privbench -spec examples/jacobi3d.json
//	privbench -serve :8080 -store DIR
//
// Every experiment is an entry in the harness registry, run at its
// published shape; `-experiment=list` enumerates them with their
// descriptions and the flags they consume, so this help never drifts
// from the code. `-trace f -trace-point LABEL` traces the sweep point
// with that label (e.g. cores=4,ratio=2). `-spec FILE|-` instead runs
// the points of a `POST /v1/runs` body, {"spec":…} or {"points":[…]},
// printing for each the workload's report and the row line the server
// would store; a point off a figure is such a document. A flag the
// chosen mode does not read exits 2 (see modes).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"

	"provirt/internal/harness"
	"provirt/internal/obs"
	"provirt/internal/scenario"
	"provirt/internal/trace"
)

// The flags, one per option; modes says which mode reads each.
var (
	experiment = flag.String("experiment", "all",
		"which experiment to run: all, list, or one of "+strings.Join(harness.ExperimentNames(), ", "))
	specFile = flag.String("spec", "",
		"run the points of this POST /v1/runs body, {\"spec\":…} or {\"points\":[…]} (a file, or - for stdin), instead of an experiment, printing for each point in order the workload's output and then its row as the server would store it; -trace, -trace-format and -profile-ranks need a one-point body")
	vps = flag.Int("vps", 0,
		"virtual rank count for the scale experiment (0 selects the default one million)")
	parallel = flag.Int("parallel", runtime.GOMAXPROCS(0),
		"worker goroutines for experiment sweeps; each simulation stays single-threaded and seeded, so output is identical at any setting (1 = serial)")
	cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	traceFile  = flag.String("trace", "",
		"write a virtual-time event trace of one sweep point (see -trace-point) to this file (requires -spec or a single -experiment)")
	traceFormat = flag.String("trace-format", "jsonl",
		"trace file format: jsonl (one event per line, streamed to the file as the run goes unless -profile-ranks is set) or chrome (Perfetto-loadable trace-event JSON)")
	tracePoint = flag.String("trace-point", "",
		"label of the sweep point -trace and -profile-ranks select: its swept values as key=value pairs, e.g. cores=4,ratio=2; empty selects the experiment's first point, and a label no point carries lists the experiment's labels")
	profileRanks = flag.Bool("profile-ranks", false,
		"print per-rank and per-PE virtual-time utilization profiles with a critical-path summary for the traced sweep point")
	showMetrics = flag.Bool("metrics", false,
		"collect host-side runtime metrics and print the deterministic text snapshot after the experiments finish")
	serveAddr = flag.String("serve", "",
		"run the experiment server on this address (e.g. :8080) instead of a batch run: POST /v1/runs executes Spec sweeps with content-addressed result caching; also serves /v1/experiments, Prometheus /metrics and /debug/pprof")
	storeDir = flag.String("store", ".provirt-results",
		"result store directory for -serve; entries are keyed by spec hash and partitioned by code version")
	serveWorkers = flag.Int("serve-workers", 0,
		"maximum concurrent simulations for -serve, across all requests (0 = GOMAXPROCS)")
	cacheEntries = flag.Int("cache-entries", 0,
		"in-memory result index capacity for -serve (0 = the resultstore default; the disk store is unbounded)")
	showVersion = flag.Bool("version", false, "print build and VCS information and exit")
)

// modes lists the flags each mode reads. The experiments mode also
// reads the registry Flags of each experiment it runs. A flag set
// outside its mode is refused before anything runs.
var modes = map[string][]string{
	"version":     {"version"},
	"list":        {"experiment"},
	"serve":       {"serve", "store", "serve-workers", "cache-entries"},
	"spec":        {"spec", "trace", "trace-format", "profile-ranks", "cpuprofile", "memprofile", "metrics"},
	"experiments": {"experiment", "cpuprofile", "memprofile", "metrics"},
}

func main() {
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	tracing := *traceFile != "" || *profileRanks

	// A value below a flag's range, or a flag nothing would read, is
	// refused before anything runs, never replaced or ignored.
	switch {
	case *vps < 0:
		die(2, "-vps must be >= 0 (0 selects the default one million), got %d", *vps)
	case *parallel < 1:
		die(2, "-parallel must be >= 1, got %d", *parallel)
	case *serveWorkers < 0:
		die(2, "-serve-workers must be >= 0 (0 = GOMAXPROCS), got %d", *serveWorkers)
	case *cacheEntries < 0:
		die(2, "-cache-entries must be >= 0 (0 = the resultstore default), got %d", *cacheEntries)
	case set["trace-point"] && !tracing:
		die(2, "-trace-point needs -trace or -profile-ranks")
	case set["trace-format"] && !tracing:
		die(2, "-trace-format needs -trace or -profile-ranks")
	}
	mode, by := "experiments", "-experiment="+*experiment
	switch {
	case *showVersion:
		mode, by = "version", "-version"
	case *experiment == "list":
		mode = "list"
	case *serveAddr != "":
		mode, by = "serve", "-serve"
	case *specFile != "":
		mode, by = "spec", "-spec"
	}
	var selected []harness.Experiment
	if mode == "experiments" {
		if *experiment == "all" {
			selected = harness.Experiments()
		} else if e, ok := harness.LookupExperiment(*experiment); ok {
			selected = []harness.Experiment{e}
		} else {
			die(2, "unknown experiment %q (try -experiment=list)", *experiment)
		}
	}
	reads := modes[mode]
	for _, e := range selected {
		reads = append(reads, e.Flags...)
	}
	flag.Visit(func(f *flag.Flag) {
		if !slices.Contains(reads, f.Name) {
			die(2, "-%s is not read by %s", f.Name, by)
		}
	})

	switch mode {
	case "version":
		printVersion()
		return
	case "list":
		listExperiments()
		return
	case "serve":
		if err := runServer(*serveAddr, *storeDir, *serveWorkers, *cacheEntries); err != nil {
			die(1, "-serve: %v", err)
		}
		return
	}

	// A -spec body is read, lowered and validated whole before anything
	// runs, as the server does.
	var points []*scenario.Spec
	if mode == "spec" {
		var err error
		if points, err = readPoints(*specFile); err != nil {
			die(2, "-spec: %v", err)
		}
		if tracing && len(points) != 1 {
			die(2, "-trace/-profile-ranks need a one-point -spec body, got %d points", len(points))
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			die(2, "-cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			die(2, "start cpu profile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "privbench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "privbench: write heap profile: %v\n", err)
			}
		}()
	}

	// Tracing selects one sweep point of one experiment by its label,
	// or a -spec body's one point. A JSONL trace nothing else reads
	// streams to its file as the run goes; Chrome output and the profile
	// need the whole event slice, so the recorder retains it.
	var rec *trace.Recorder
	var sel *harness.TraceSel
	var traceOut *os.File // the file rec streams to, if it streams
	if tracing {
		if mode == "experiments" && len(selected) != 1 {
			die(2, "-trace/-profile-ranks need -spec or a single -experiment (got %q)", *experiment)
		}
		if *traceFormat != "jsonl" && *traceFormat != "chrome" {
			die(2, "unknown -trace-format %q (want jsonl or chrome)", *traceFormat)
		}
		if *traceFile != "" && *traceFormat == "jsonl" && !*profileRanks {
			var err error
			if traceOut, err = os.Create(*traceFile); err != nil {
				die(2, "-trace: %v", err)
			}
			rec = trace.NewJSONLRecorder(traceOut)
		} else {
			rec = trace.NewRecorder()
		}
		sel = &harness.TraceSel{Point: *tracePoint, Rec: rec}
	}

	// Host metrics piggyback on the runs: instruments observe the host
	// runtime only, so rows, tables, and trace bytes are identical with
	// or without them.
	var reg *obs.Registry
	if *showMetrics {
		reg = obs.NewRegistry()
		harness.EnableObs(reg)
	}

	ropts := harness.RunOpts{
		Opts:     harness.Opts{Parallelism: *parallel, Trace: sel},
		ScaleVPs: *vps,
	}
	for i := range points {
		if err := runPoint(points[i], rec); err != nil {
			die(1, "-spec: point %d: %v", i, err)
		}
	}
	for _, e := range selected {
		res, err := e.Run(ropts)
		if err != nil {
			die(1, "%s: %v", e.Name, err)
		}
		for _, tbl := range res.Tables {
			fmt.Println(tbl)
		}
	}

	if rec != nil {
		err := rec.Close()
		if traceOut != nil {
			if cerr := traceOut.Close(); err == nil {
				err = cerr
			}
		}
		if rec.Len() == 0 {
			if traceOut != nil {
				os.Remove(*traceFile)
			}
			labels := ""
			for _, l := range sel.Offered {
				labels += "\n  " + l
			}
			die(1, "trace selection %q matched no run; the experiment ran %d labelled points%s",
				*tracePoint, len(sel.Offered), labels)
		}
		if traceOut == nil && *traceFile != "" {
			err = writeTrace(*traceFile, *traceFormat, rec.Events())
		}
		if err != nil {
			die(1, "-trace: %v", err)
		}
		if *traceFile != "" {
			fmt.Printf("trace: %d events -> %s (%s)\n", rec.Len(), *traceFile, *traceFormat)
		}
		if *profileRanks {
			p := trace.BuildProfile(rec.Events())
			fmt.Println(p.RankTable())
			fmt.Println(p.PETable())
			fmt.Println(p.CriticalPath().Summary())
		}
	}

	if *showMetrics {
		// The text snapshot excludes volatile (host-timing) instruments,
		// so it is byte-identical across runs at a fixed -parallel.
		fmt.Println("host metrics:")
		if err := reg.WriteText(os.Stdout); err != nil {
			die(1, "-metrics: %v", err)
		}
	}
}

// die reports a fatal error and exits: 2 for bad usage, 1 for a failed run.
func die(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "privbench: "+format+"\n", args...)
	os.Exit(code)
}

// readPoints decodes the request body at path (- for stdin) through
// the server's decoder, which lowers and validates every point and
// names the first one refused.
func readPoints(path string) ([]*scenario.Spec, error) {
	f := os.Stdin
	if path != "-" {
		var err error
		if f, err = os.Open(path); err != nil {
			return nil, err
		}
		defer f.Close()
	}
	return scenario.DecodeRequest(f, nil)
}

// runPoint executes one point and prints what it produced: the
// workload's own report, then the row exactly as the server would
// store it.
func runPoint(sp *scenario.Spec, rec *trace.Recorder) error {
	sp.Tracer = rec
	row, report, err := sp.Execute()
	if err != nil {
		return err
	}
	if report != nil {
		report()
	}
	line, err := json.Marshal(row)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

// printVersion reports module, VCS, and toolchain details from the
// build info stamped into the binary.
func printVersion() {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		fmt.Println("privbench: no build info (binary built without module support)")
		return
	}
	version := info.Main.Version
	if version == "" || version == "(devel)" {
		version = "devel"
	}
	fmt.Printf("privbench %s (%s, %s)\n", version, info.Main.Path, info.GoVersion)
	var rev, modified, vcsTime string
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value
		case "vcs.time":
			vcsTime = s.Value
		}
	}
	if rev != "" {
		dirty := ""
		if modified == "true" {
			dirty = " (modified)"
		}
		fmt.Printf("  commit: %s%s\n", rev, dirty)
	}
	if vcsTime != "" {
		fmt.Printf("  commit time: %s\n", vcsTime)
	}
}

// listExperiments prints the registry: one line per experiment with
// its aliases and the extra flags it reads. Output is sorted by name so
// it never leaks registry iteration order.
func listExperiments() {
	exps := harness.Experiments()
	sort.Slice(exps, func(i, j int) bool { return exps[i].Name < exps[j].Name })
	fmt.Println("experiments (run with -experiment=NAME; -experiment=all runs every one in registry order):")
	for _, e := range exps {
		name := e.Name
		if len(e.Aliases) > 0 {
			name += " (alias " + strings.Join(e.Aliases, ", ") + ")"
		}
		fmt.Printf("  %-24s %s\n", name, e.Description)
		if len(e.Flags) > 0 {
			fmt.Printf("  %-24s -%s\n", "", strings.Join(e.Flags, "; -"))
		}
	}
}

// writeTrace serializes events to path in the chosen format.
func writeTrace(path, format string, events []trace.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	switch format {
	case "chrome":
		err = trace.WriteChrome(f, events)
	default:
		err = trace.WriteJSONL(f, events)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
