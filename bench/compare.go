package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// benchmarkSpec is the part of BENCHMARK.json -compare reads: each
// end-to-end metric's direction and the share of the first set's median
// it may worsen by.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareSets reads two -o files and, for every (end-to-end metric,
// workload) pair, applies that metric's own bound and direction. A pair
// whose run-to-run spread exceeds the bound is unresolved, not
// unchanged — unless every run of the second set reads better than
// every run of the first. It exits 1 when a pair regressed or any run
// failed an operation, 0 otherwise.
func compareSets(specPath, aPath, bPath string, stdout, stderr io.Writer) int {
	var spec benchmarkSpec
	var a, b runSet
	for _, f := range []struct {
		path string
		into any
	}{{specPath, &spec}, {aPath, &a}, {bPath, &b}} {
		data, err := os.ReadFile(f.path)
		if err == nil {
			err = json.Unmarshal(data, f.into)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", f.path, err)
			return 2
		}
	}
	fmt.Fprintf(stdout, "a: %s\n   %s\nb: %s\n   %s\n", aPath, a.Host, bPath, b.Host)

	// values[set][workload][metric] -> one value per run.
	collect := func(set runSet) (map[string]map[string][]float64, int) {
		out := map[string]map[string][]float64{}
		failed := 0
		for _, r := range set.Runs {
			if r.Trace != 0 {
				continue
			}
			failed += r.Result.Failed
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]float64{}
			}
			for name, m := range r.Result.Metrics {
				out[r.Workload][name] = append(out[r.Workload][name], m.Value)
			}
		}
		return out, failed
	}
	va, failedA := collect(a)
	vb, failedB := collect(b)

	exit := 0
	fmt.Fprintf(stdout, "%-16s %-18s %5s %12s %12s %8s %8s %7s  %s\n",
		"workload", "metric", "n", "median a", "median b", "change", "spread", "bound", "verdict")
	for _, wl := range sortedKeys(va) {
		for _, m := range spec.EndToEnd {
			xa, xb := va[wl][m.Name], vb[wl][m.Name]
			if len(xa) < 2 || len(xb) < 2 {
				fmt.Fprintf(stdout, "%-16s %-18s %5d  needs at least two runs on each side\n", wl, m.Name, min(len(xa), len(xb)))
				continue
			}
			a1, a2, a3 := quartiles(xa)
			b1, b2, b3 := quartiles(xb)
			// worse > 0 means b is worse than a, as a share of a.
			worse := (b2 - a2) / a2
			if m.Better == "higher" {
				worse = -worse
			}
			spread := max((a3-a1)/a2, (b3-b1)/b2)
			verdict := "ok"
			switch {
			case worse <= m.Bound && spread <= m.Bound:
			case allBetter(xa, xb, m.Better == "higher"):
				verdict = "ok (every run of b better than every run of a)"
			case spread > m.Bound:
				verdict = "unresolved: spread exceeds the bound"
			default:
				verdict = "REGRESSED"
				exit = 1
			}
			fmt.Fprintf(stdout, "%-16s %-18s %2d/%-2d %12.4f %12.4f %+7.2f%% %7.2f%% %6.1f%%  %s\n",
				wl, m.Name, len(xa), len(xb), a2, b2, 100*(b2-a2)/a2, 100*spread, 100*m.Bound, verdict)
			fmt.Fprintf(stdout, "%-16s %-18s       q1..q3 a %.4f..%.4f  b %.4f..%.4f %s\n", "", "", a1, a3, b1, b3, m.Unit)
		}
	}
	fmt.Fprintf(stdout, "failed operations: a %d, b %d\n", failedA, failedB)
	if failedA+failedB > 0 {
		exit = 1
	}
	return exit
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(a, b []float64, higher bool) bool {
	if higher {
		return slices.Min(b) > slices.Max(a)
	}
	return slices.Max(b) < slices.Min(a)
}
