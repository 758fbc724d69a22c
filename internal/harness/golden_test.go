package harness_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"provirt/internal/harness"
	"provirt/internal/obs"
)

var update = flag.Bool("update", false, "rewrite testdata/experiments.golden and testdata/metrics.golden from the current tree")

// render runs one registry entry and returns its tables as privbench
// prints them.
func render(t *testing.T, e harness.Experiment, o harness.RunOpts) string {
	t.Helper()
	res, err := e.Run(o)
	if err != nil {
		t.Fatalf("%s: %v", e.Name, err)
	}
	var sb strings.Builder
	for _, tbl := range res.Tables {
		sb.WriteString(tbl.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestExperimentsGolden is the repository's record of results: every
// registry entry rendered at parallelism 1 — the bytes `privbench
// -experiment=all` prints — compared with testdata/experiments.golden,
// and the metrics snapshot of that run with testdata/metrics.golden.
// Every value in them is virtual time, a modeled count, or a sum or a
// maximum of host quantities that are functions of the simulated
// configurations, so they are the same on any host, at any sweep
// parallelism, with or without the race detector. The metrics pin the
// evaluation's message path (unexpected messages, match probe depth,
// engine dispatches), its snapshot volumes and its segment sharing; the
// segment bytes left shared, the granules materialised and the snapshot
// arena bytes move with the copy-on-write granule (512 B), which no
// modelled count does. A change that moves a byte either has a bug or
// is changing a result; in the second case regenerate both files with
//
//	go test ./internal/harness -run TestExperimentsGolden -update
//
// and justify their diff in the change that moves them.
func TestExperimentsGolden(t *testing.T) { checkGoldens(t, 1, *update) }

// TestMetricsGolden holds the run at parallelism 2 to the same files:
// every instrument in the snapshot is a sum or a maximum, so no
// interleaving of the sweep's points moves it.
func TestMetricsGolden(t *testing.T) { checkGoldens(t, 2, false) }

// checkGoldens renders every registry entry at the given parallelism,
// as `privbench -experiment=all -metrics` does, and compares the tables
// and the deterministic metrics snapshot printed after them with their
// golden files, or rewrites the files.
func checkGoldens(t *testing.T, parallelism int, rewrite bool) {
	var tables string
	var metrics bytes.Buffer
	withObs(t, func(r *obs.Registry) {
		for _, e := range harness.Experiments() {
			tables += render(t, e, harness.RunOpts{Opts: harness.Opts{Parallelism: parallelism}})
		}
		if err := r.WriteText(&metrics); err != nil {
			t.Fatal(err)
		}
	})
	for _, f := range []struct{ path, got string }{
		{"testdata/experiments.golden", tables},
		{"testdata/metrics.golden", metrics.String()},
	} {
		if rewrite {
			if err := os.WriteFile(f.path, []byte(f.got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(f.path)
		if err != nil {
			t.Fatal(err)
		}
		sameText(t, fmt.Sprintf("the output at parallelism %d", parallelism), f.path, f.got, string(want))
	}
}

// sameText fails at the first line where got differs from want, the
// contents of the file at path.
func sameText(t *testing.T, what, path, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	gotLines := strings.SplitAfter(got, "\n")
	wantLines := strings.SplitAfter(want, "\n")
	for i := range gotLines {
		if i >= len(wantLines) || gotLines[i] != wantLines[i] {
			var w string
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Fatalf("%s differs from %s at line %d:\n got: %q\nwant: %q", what, path, i+1, gotLines[i], w)
		}
	}
	t.Fatalf("%s is %d lines, %s has %d", what, len(gotLines), path, len(wantLines))
}
