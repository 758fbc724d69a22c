// Command bench is provirt's host-cost benchmark: five named workloads
// that each stress different layers of the simulator, four end-to-end
// metrics measured with tracing off, and a traced pass that breaks the
// same work down by layer. BENCHMARK.json at the repository root
// records the command, workloads, metrics and regression bounds;
// README.md in this directory records why each workload exists.
//
// Every workload runs in child processes of this binary, so peak RSS
// and the Go heap start fresh: a timed run is several children (set-up
// is measured once per child and reported as a median), a traced run is
// one.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// timedChildren is how many processes a timed run spreads its seconds
// over; each sets up afresh, which is what makes setup_s a median.
const timedChildren = 3

// processStart anchors setup_s: set-up time runs from process start to
// the end of the warm-up repetition.
var processStart = time.Now()

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the command-line inputs of one invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	scale    string
	outDir   string
	runs     int
	setFile  string
	spec     string
	child    bool
}

// run parses the command line and dispatches; it returns the exit
// code: 0, 1 when something failed, 2 for a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	fs.Int64Var(&o.seed, "seed", 1, "input seed (drives the serve_sweep point seeds and replay order; the simulation workloads run the paper's fixed configurations)")
	fs.Float64Var(&o.seconds, "seconds", 15, "how long one run measures")
	fs.IntVar(&o.trace, "trace", 0, "0: timed pass, end-to-end metrics; 1: traced pass, per-layer metrics and a span file")
	fs.StringVar(&o.scale, "scale", "full", "full or smoke (tiny sizes, for tests)")
	fs.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "directory for span files, run records and temporary stores")
	fs.IntVar(&o.runs, "runs", 1, "runs per workload, each with the next seed")
	fs.StringVar(&o.setFile, "o", "", "write every run of this invocation to this file, as input for -compare")
	fs.StringVar(&o.spec, "spec", "BENCHMARK.json", "benchmark definition -compare takes bounds and directions from")
	fs.BoolVar(&o.child, "child", false, "internal: run one child process of a workload and print its result as JSON")
	compare := fs.Bool("compare", false, "compare two -o files: bench -compare a.json b.json")
	updateGolden := fs.Bool("update-golden", false, "regenerate bench/golden.json from the current tree")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "bench: "+format+"\n", a...)
		return 2
	}
	sc, ok := scales[o.scale]
	if !ok {
		return usage("unknown -scale %q", o.scale)
	}
	if o.trace != 0 && o.trace != 1 {
		return usage("-trace must be 0 or 1, got %d", o.trace)
	}
	if o.runs < 1 {
		return usage("-runs must be at least 1, got %d", o.runs)
	}
	var wls []workload
	if wl, ok := lookupWorkload(o.workload); ok {
		wls = []workload{wl}
	} else if o.workload == "all" && !o.child {
		wls = workloads
	} else {
		return usage("unknown workload %q (want %s, or all)", o.workload, strings.Join(workloadNames(), ", "))
	}

	var err error
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return usage("-compare needs two files")
		}
		return compareSets(o.spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *updateGolden:
		err = writeGolden(stderr)
	case o.child:
		err = childMain(o, wls[0], sc, stdout)
	default:
		var correct bool
		correct, err = parentMain(o, wls, sc, stdout, stderr)
		if err == nil && !correct {
			return 1
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// childMain is the -child mode: one child's work, its result as JSON.
func childMain(o options, wl workload, sc scale, stdout io.Writer) error {
	golden, err := loadGolden()
	if err != nil {
		return err
	}
	res, err := runChild(childConfig{
		workload: wl, seed: o.seed, seconds: o.seconds, traced: o.trace == 1,
		scale: sc, outDir: o.outDir, golden: golden[sc.name],
	})
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(res)
}

// parentMain runs every requested workload o.runs times, prints each
// run, and reports whether every operation of every run succeeded.
func parentMain(o options, wls []workload, sc scale, stdout, stderr io.Writer) (correct bool, err error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return false, err
	}
	host := hostFacts()
	fmt.Fprintf(stdout, "# host: %s\n", host)
	set := runSet{Host: host}
	correct = true
	for _, wl := range wls {
		for i := 0; i < o.runs; i++ {
			rec, err := runOnce(o, wl, sc, o.seed+int64(i), stderr)
			if err != nil {
				return false, fmt.Errorf("%s: %w", wl.name, err)
			}
			rec.Host = host
			printRecord(stdout, rec)
			if err := writeJSON(filepath.Join(o.outDir, fmt.Sprintf("run-%s-trace%d.json", wl.name, o.trace)), rec); err != nil {
				return false, err
			}
			set.Runs = append(set.Runs, rec)
			correct = correct && rec.Result.Correct
		}
	}
	if o.setFile != "" {
		if err := writeJSON(o.setFile, set); err != nil {
			return false, err
		}
	}
	// The last line is the result object the driver's contract names;
	// with several workloads or runs it is the last run's.
	line, err := json.Marshal(set.Runs[len(set.Runs)-1].Result)
	if err != nil {
		return false, err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return correct, err
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord is one run with its inputs, as stored in output files.
type runRecord struct {
	Host     string         `json:"host,omitempty"`
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Trace    int            `json:"trace"`
	Scale    string         `json:"scale"`
	Started  string         `json:"started"`
	Children int            `json:"children"`
	Samples  map[string]int `json:"samples"`
	Failures []string       `json:"failures,omitempty"`
	Result   result         `json:"result"`
}

// runSet is the -o file: every run of one invocation.
type runSet struct {
	Host string      `json:"host"`
	Runs []runRecord `json:"runs"`
}

// runOnce performs one run of one workload: it spawns the children,
// folds their results and returns the record.
func runOnce(o options, wl workload, sc scale, seed int64, stderr io.Writer) (runRecord, error) {
	rec := runRecord{
		Workload: wl.name, Seed: seed, Seconds: o.seconds, Trace: o.trace, Scale: sc.name,
		Started: time.Now().UTC().Format(time.RFC3339),
	}
	children := timedChildren
	if o.trace == 1 || sc.single {
		children = 1
	}
	rec.Children = children
	exe, err := os.Executable()
	if err != nil {
		return rec, err
	}
	// An interrupted run kills its child and waits for it: no path out of
	// here leaves a process behind.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var outs []childRun
	for i := 0; i < children; i++ {
		cmd := exec.CommandContext(ctx, exe, "-child",
			"-workload", wl.name,
			"-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(o.seconds/float64(children)),
			"-trace", fmt.Sprint(o.trace),
			"-scale", sc.name,
			"-out", o.outDir)
		cmd.Stderr = stderr
		raw, err := cmd.Output()
		if err != nil {
			return rec, fmt.Errorf("child %d: %w", i, err)
		}
		var cr childResult
		if err := json.Unmarshal(raw, &cr); err != nil {
			return rec, fmt.Errorf("child %d: result: %w", i, err)
		}
		ru, _ := cmd.ProcessState.SysUsage().(*syscall.Rusage)
		if ru == nil {
			return rec, fmt.Errorf("child %d: no rusage", i)
		}
		// Linux reports ru_maxrss in KiB.
		outs = append(outs, childRun{childResult: cr, peakRSSMB: float64(ru.Maxrss) / 1024})
	}
	rec.Result, rec.Samples, rec.Failures = fold(outs, o.trace == 1)
	return rec, nil
}

func printRecord(w io.Writer, rec runRecord) {
	fmt.Fprintf(w, "== %s seed=%d seconds=%g trace=%d scale=%s children=%d started=%s\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Scale, rec.Children, rec.Started)
	fmt.Fprintf(w, "   attempted=%d failed=%d correct=%v", rec.Result.Attempted, rec.Result.Failed, rec.Result.Correct)
	for _, k := range sortedKeys(rec.Samples) {
		fmt.Fprintf(w, " n(%s)=%d", k, rec.Samples[k])
	}
	fmt.Fprintln(w)
	for _, name := range sortedKeys(rec.Result.Metrics) {
		m := rec.Result.Metrics[name]
		fmt.Fprintf(w, "   %-36s %14.4f %s\n", name, m.Value, m.Unit)
	}
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
