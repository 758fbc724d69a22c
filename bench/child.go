package main

import (
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"provirt/internal/harness"
	"provirt/internal/obs"
	"provirt/internal/resultstore"
	"provirt/internal/serve"
)

// scale sizes a run. full is what BENCHMARK.json measures; smoke keeps
// every code path but shrinks the inputs so the tier-1 test stays fast.
type scale struct {
	name string
	// single runs one child, no warm-up and exactly one measured
	// repetition, for tests and golden regeneration. Otherwise a timed
	// run spreads its seconds over timedChildren processes, each of which
	// warms up with one excluded repetition.
	single bool

	adcircCores []int
	jacobiIters int
	flatVPs     int
	serve       serveSizes
}

var scales = map[string]scale{
	"full": {
		name:        "full",
		adcircCores: []int{1, 2, 4, 8, 16, 32},
		jacobiIters: 600,
		flatVPs:     1_000_000,
		serve: serveSizes{
			storeEntries: 0, // resultstore.DefaultMaxEntries, as privbench -serve runs
			warmSweeps:   16, diskSweeps: 24,
			coldPerRound: 2, warmPerRound: 200, diskPerRound: 120, stormsPerRound: 1,
		},
	},
	"smoke": {
		name: "smoke", single: true,
		adcircCores: []int{1, 2, 4},
		jacobiIters: 20,
		flatVPs:     10_000,
		serve: serveSizes{
			storeEntries: 64,
			warmSweeps:   1, diskSweeps: 2,
			coldPerRound: 2, warmPerRound: 8, diskPerRound: 6, stormsPerRound: 1,
		},
	},
}

//go:embed golden.json
var goldenJSON []byte

// loadGolden returns scale name -> workload -> digest of one
// repetition's virtual-time results.
func loadGolden() (map[string]map[string]string, error) {
	var g map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// writeGolden regenerates bench/golden.json by running one repetition
// of every simulation workload at every scale, traced and untraced,
// and refusing to write when the two passes disagree.
func writeGolden(stderr io.Writer) error {
	out := map[string]map[string]string{}
	for _, name := range []string{"full", "smoke"} {
		sc := scales[name]
		sc.single = true
		out[name] = map[string]string{}
		for _, wl := range workloads {
			var digests [2]string
			for pass, traced := range []bool{false, true} {
				dir, err := os.MkdirTemp("", "bench-golden-")
				if err != nil {
					return err
				}
				res, err := runChild(childConfig{workload: wl, seed: 1, seconds: 1, traced: traced, scale: sc, outDir: dir})
				os.RemoveAll(dir)
				if err != nil {
					return fmt.Errorf("%s/%s: %w", name, wl.name, err)
				}
				digests[pass] = res.Digest
			}
			if digests[0] != digests[1] {
				return fmt.Errorf("%s/%s: untraced digest %s, traced %s", name, wl.name, digests[0], digests[1])
			}
			if digests[0] != "" {
				out[name][wl.name] = digests[0]
				fmt.Fprintf(stderr, "%s/%s %s\n", name, wl.name, digests[0])
			}
		}
	}
	return writeJSON(filepath.Join("bench", "golden.json"), out)
}

// childConfig is everything one child process is told.
type childConfig struct {
	workload workload
	seed     int64
	seconds  float64
	traced   bool
	scale    scale
	outDir   string
	// golden maps workload name to the expected digest; nil skips the
	// comparison (golden regeneration).
	golden map[string]string
}

// childResult is what a child prints for its parent.
type childResult struct {
	Workload string  `json:"workload"`
	SetupS   float64 `json:"setup_s"`
	// RepMs holds the measured repetitions: the untraced ones in a timed
	// run, the traced ones in a traced run.
	RepMs      []float64 `json:"rep_ms"`
	AllocBytes uint64    `json:"alloc_bytes"`
	Attempted  int       `json:"attempted"`
	Failed     int       `json:"failed"`
	Failures   []string  `json:"failures,omitempty"`
	// Digest is the digest of one repetition's virtual-time results
	// (every repetition must produce the same one); empty for workloads
	// whose results depend on -seed.
	Digest string `json:"digest,omitempty"`
	// Layer holds the per-layer metrics of a traced run; Samples the
	// sample counts behind reported medians and percentiles.
	Layer   map[string]float64 `json:"layer,omitempty"`
	Samples map[string]int     `json:"samples,omitempty"`
}

// childRun is a child's result plus what only its parent can see.
type childRun struct {
	childResult
	peakRSSMB float64
}

// env is the state a workload's code shares with the child's driver.
type env struct {
	cfg childConfig
	// tr is non-nil only while the traced segment runs; every method
	// of a nil tracer is a no-op.
	tr  *tracer
	reg *obs.Registry
	// rep is the id of the running repetition; root its span.
	rep  int
	root spanID

	attempted, failed int
	failures          []string
	digest            string
}

// op counts one operation and, when it failed, why.
func (e *env) op(ok bool, format string, args ...any) {
	e.attempted++
	if ok {
		return
	}
	e.failed++
	if len(e.failures) < 8 {
		e.failures = append(e.failures, fmt.Sprintf(format, args...))
	}
}

// checkDigest compares one repetition's result digest with the golden
// one and with the other repetitions of this child.
func (e *env) checkDigest(h hash.Hash) {
	got := hex.EncodeToString(h.Sum(nil))
	if e.digest == "" {
		e.digest = got
	}
	want := e.digest
	if g, ok := e.cfg.golden[e.cfg.workload.name]; ok {
		want = g
	}
	e.op(got == want, "rep %d: result digest %s, want %s", e.rep, got, want)
}

// instance is one child's live copy of a workload.
type instance interface {
	// rep runs one repetition, counting its operations into env.
	rep(e *env)
	// layer fills the per-layer metrics after the traced repetitions:
	// reps of them ran, in wall seconds, with counter deltas d.
	layer(e *env, m map[string]float64, seg segment)
	close()
}

// segment is what the child's driver measured around a run of
// repetitions.
type segment struct {
	reps       int
	repMs      []float64
	wall       time.Duration
	mem0, mem1 runtime.MemStats
	obs        map[string]float64 // registry counter deltas
	// untracedRepMs are the repetitions run before tracing was switched
	// on, the base of bench.trace_overhead_pct.
	untracedRepMs []float64
}

func (s segment) perRep(v float64) float64 { return v / float64(s.reps) }

// runChild is one child process's work: set up, warm up, measure.
func runChild(cfg childConfig) (*childResult, error) {
	e := &env{cfg: cfg}
	inst, err := cfg.workload.setup(e)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	if !cfg.scale.single {
		inst.rep(e) // warm-up: its operations count, its time does not
	}
	res := &childResult{Workload: cfg.workload.name, SetupS: time.Since(processStart).Seconds()}

	budget := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.traced {
		seg := e.measure(inst, budget)
		res.RepMs = seg.repMs
		res.AllocBytes = seg.mem1.TotalAlloc - seg.mem0.TotalAlloc
	} else {
		// A third of the budget untraced, for the overhead figure; the
		// rest with obs counters on and spans recorded.
		untraced := e.measure(inst, budget/3)
		e.reg = obs.NewRegistry()
		harness.EnableObs(e.reg)
		serve.EnableObs(e.reg)
		e.tr = newTracer()
		goroutines0 := runtime.NumGoroutine()
		var ru0, ru1 syscall.Rusage
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru0) // cannot fail for RUSAGE_SELF
		before := obsValues(e.reg)
		seg := e.measure(inst, budget-budget/3)
		seg.obs = obsDelta(before, obsValues(e.reg))
		seg.untracedRepMs = untraced.repMs
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
		goroutines1 := runtime.NumGoroutine()
		tr := e.tr
		e.tr = nil // probes below are not part of any repetition

		m := map[string]float64{}
		inst.layer(e, m, seg)
		m["sim.events_per_rep"] = seg.perRep(seg.obs["sim_events_dispatched_total"])
		m["ult.goroutines_left_per_rep"] = seg.perRep(float64(goroutines1 - goroutines0))
		m["runtime.cpu_user_s"] = tvSeconds(ru1.Utime) - tvSeconds(ru0.Utime)
		m["runtime.cpu_sys_s"] = tvSeconds(ru1.Stime) - tvSeconds(ru0.Stime)
		m["runtime.gc_cycles_per_rep"] = seg.perRep(float64(seg.mem1.NumGC - seg.mem0.NumGC))
		m["runtime.mallocs_per_rep"] = seg.perRep(float64(seg.mem1.Mallocs - seg.mem0.Mallocs))
		m["bench.trace_overhead_pct"] = 100 * (median(seg.repMs)/median(untraced.repMs) - 1)
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		m["runtime.heap_retained_mb"] = float64(ms.HeapInuse) / (1 << 20)
		harness.EnableObs(nil)
		serve.EnableObs(nil)

		res.RepMs = seg.repMs
		res.AllocBytes = seg.mem1.TotalAlloc - seg.mem0.TotalAlloc
		res.Layer = m
		if err := tr.write(filepath.Join(cfg.outDir, "trace-"+cfg.workload.name+".json"), cfg); err != nil {
			return nil, err
		}
	}
	res.Attempted, res.Failed, res.Failures = e.attempted, e.failed, e.failures
	res.Digest = e.digest
	res.Samples = map[string]int{"rep_ms": len(res.RepMs)}
	if s, ok := inst.(interface{ samples(map[string]int) }); ok && cfg.traced {
		s.samples(res.Samples)
	}
	return res, nil
}

// measure runs repetitions until the next one is not expected to
// finish inside the budget — at least two, so a median exists, unless
// the scale asks for exactly one.
func (e *env) measure(inst instance, budget time.Duration) segment {
	var seg segment
	runtime.ReadMemStats(&seg.mem0)
	begin := time.Now()
	for {
		e.rep++
		e.root = e.tr.begin(0, "rep")
		t := time.Now()
		inst.rep(e)
		d := time.Since(t)
		e.tr.end(e.root)
		seg.repMs = append(seg.repMs, float64(d)/float64(time.Millisecond))
		seg.reps++
		if e.cfg.scale.single {
			break
		}
		elapsed := time.Since(begin)
		next := elapsed + time.Duration(median(seg.repMs)*float64(time.Millisecond))
		if seg.reps >= 2 && next > budget {
			break
		}
		if limit := e.cfg.workload.maxReps; limit > 0 && seg.reps >= limit {
			break
		}
	}
	seg.wall = time.Since(begin)
	runtime.ReadMemStats(&seg.mem1)
	return seg
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// fold combines a run's children into the reported result.
func fold(children []childRun, traced bool) (result, map[string]int, []string) {
	res := result{Metrics: map[string]metricValue{}}
	samples := map[string]int{}
	var failures []string
	var setups, rss, reps []float64
	var alloc uint64
	digest := ""
	for _, c := range children {
		res.Attempted += c.Attempted
		res.Failed += c.Failed
		failures = append(failures, c.Failures...)
		setups = append(setups, c.SetupS)
		rss = append(rss, c.peakRSSMB)
		reps = append(reps, c.RepMs...)
		alloc += c.AllocBytes
		for k, n := range c.Samples {
			samples[k] += n
		}
		if digest == "" {
			digest = c.Digest
		}
		if c.Digest != digest {
			res.Failed++
			failures = append(failures, fmt.Sprintf("children disagree on the result digest: %s vs %s", digest, c.Digest))
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	samples["setup_s"] = len(setups)
	if traced {
		for _, d := range perLayer {
			res.Metrics[d.name] = metricValue{Value: children[0].Layer[d.name], Unit: d.unit}
		}
		return res, samples, failures
	}
	values := map[string]float64{
		"setup_s":          median(setups),
		"rep_ms":           median(reps),
		"alloc_mb_per_rep": float64(alloc) / (1 << 20) / float64(len(reps)),
		"peak_rss_mb":      median(rss),
	}
	for _, d := range endToEnd {
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return res, samples, failures
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// hostFacts describes the machine and build, for every output file.
func hostFacts() string {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s %s/%s kernel=%s vcs.revision=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, kernel, resultstore.CodeVersion())
}
