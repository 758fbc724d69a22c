package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile is BENCHMARK.json as the driver's contract defines it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkFileMatchesCode pins BENCHMARK.json to the tables the
// program emits from, and both to the contract's limits.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	f := readBenchmarkFile(t)
	if n := len(f.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(f.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(f.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", f.RunSeconds)
	}

	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(f.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for i, w := range f.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: file has %q / %q, program %q / %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, file []specMetric, code []metricDef, bounded bool) {
		t.Helper()
		if len(file) != len(code) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(file), len(code))
		}
		for i, m := range file {
			unique(m.Name)
			if m.Name != code[i].name || m.Unit != code[i].unit {
				t.Errorf("%s %d: file has %s [%s], program %s [%s]", kind, i, m.Name, m.Unit, code[i].name, code[i].unit)
			}
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q is outside the allowed characters", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better is %q", m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) {
				t.Errorf("%s: bound present is %v, want %v", m.Name, m.Bound != nil, bounded)
			}
			if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, *m.Bound)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd, true)
	check("per_layer", f.PerLayer, perLayer, false)
	if f.EndToEnd[0].Name != "setup_s" || f.EndToEnd[0].Unit != "s" || f.EndToEnd[0].Better != "lower" {
		t.Errorf("first end-to-end metric must be setup_s in s, lower is better")
	}
}

// smokeRun runs one workload's child in-process at smoke scale and
// folds it the way the parent would.
func smokeRun(t *testing.T, wl workload, traced bool, golden map[string]string) (result, *childResult, string) {
	t.Helper()
	dir := t.TempDir()
	res, err := runChild(childConfig{
		workload: wl, seed: 1, seconds: 1, traced: traced,
		scale: scales["smoke"], outDir: dir, golden: golden,
	})
	if err != nil {
		t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
	}
	folded, _, failures := fold([]childRun{{childResult: *res, peakRSSMB: 1}}, traced)
	if traced {
		if _, err := os.Stat(filepath.Join(dir, "trace-"+wl.name+".json")); err != nil {
			t.Errorf("%s: traced pass wrote no span file: %v", wl.name, err)
		}
	}
	return folded, res, strings.Join(failures, "; ")
}

// TestSmokeEveryWorkload drives every workload through both passes and
// checks that each emits exactly the metrics BENCHMARK.json names, that
// no operation fails, and that the two passes agree with each other and
// with golden.json on the virtual-time results.
func TestSmokeEveryWorkload(t *testing.T) {
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	want := map[bool][]metricDef{false: endToEnd, true: perLayer}
	for _, wl := range workloads {
		var digests [2]string
		for pass, traced := range []bool{false, true} {
			res, child, failures := smokeRun(t, wl, traced, golden["smoke"])
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %s",
					wl.name, traced, res.Correct, res.Attempted, res.Failed, failures)
			}
			if len(res.Metrics) != len(want[traced]) {
				t.Errorf("%s traced=%v: %d metrics, want %d", wl.name, traced, len(res.Metrics), len(want[traced]))
			}
			for _, d := range want[traced] {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s missing or in unit %q, want %q", wl.name, traced, d.name, m.Unit, d.unit)
				}
			}
			digests[pass] = child.Digest
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: untraced digest %s, traced %s", wl.name, digests[0], digests[1])
		}
		if g, ok := golden["smoke"][wl.name]; ok && g != digests[0] {
			t.Errorf("%s: digest %s, golden.json has %s", wl.name, digests[0], g)
		}
	}
}

// TestCorruptGoldenIsAFailedOperation: a digest that does not match
// golden.json must count into failed and clear correct.
func TestCorruptGoldenIsAFailedOperation(t *testing.T) {
	wl, _ := lookupWorkload("flat_scale")
	res, _, failures := smokeRun(t, wl, false, map[string]string{"flat_scale": "not-the-digest"})
	if res.Failed != 1 || res.Correct {
		t.Errorf("corrupt golden: failed=%d correct=%v, want 1 and false", res.Failed, res.Correct)
	}
	if !strings.Contains(failures, "not-the-digest") {
		t.Errorf("failure does not name the expected digest: %q", failures)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1.0, 2.0], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
}

// TestCompareVerdicts feeds -compare synthetic sets: equal sets pass, a
// clear slowdown regresses, a change inside a wide spread is unresolved
// rather than unchanged, and a wide spread does not hide a set that
// beats the other on every run.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, repMs []float64) string {
		var set runSet
		for i, v := range repMs {
			set.Runs = append(set.Runs, runRecord{Workload: "w", Seed: int64(i), Result: result{
				Correct: true, Attempted: 1,
				Metrics: map[string]metricValue{
					"setup_s": {1, "s"}, "rep_ms": {v, "ms"}, "alloc_mb_per_rep": {1, "MB"}, "peak_rss_mb": {1, "MB"},
				},
			}})
		}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, set); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spec := filepath.Join("..", "BENCHMARK.json")
	steady := write("steady.json", []float64{100, 101, 99, 100, 102, 98})
	slower := write("slower.json", []float64{130, 131, 129, 130, 132, 128})
	noisy := write("noisy.json", []float64{80, 150, 95, 140, 90, 145})
	noisySlow := write("noisy-slow.json", []float64{160, 300, 190, 280, 180, 290})

	for _, tc := range []struct {
		a, b string
		exit int
		want string
	}{
		{steady, steady, 0, "ok"},
		{steady, slower, 1, "REGRESSED"},
		{slower, steady, 0, "ok"},
		{noisySlow, steady, 0, "every run of b better"},
		{steady, noisy, 0, "unresolved"},
	} {
		var out, errOut bytes.Buffer
		if got := compareSets(spec, tc.a, tc.b, &out, &errOut); got != tc.exit {
			t.Errorf("compare %s %s: exit %d, want %d\n%s%s", filepath.Base(tc.a), filepath.Base(tc.b), got, tc.exit, out.String(), errOut.String())
		}
		var line string
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.Contains(l, "rep_ms") && strings.Contains(l, "%") {
				line = l
			}
		}
		if !strings.Contains(line, tc.want) {
			t.Errorf("compare %s %s: rep_ms line %q lacks %q", filepath.Base(tc.a), filepath.Base(tc.b), line, tc.want)
		}
	}
}
