package harness_test

import (
	"flag"
	"os"
	"strings"
	"testing"

	"provirt/internal/harness"
)

var update = flag.Bool("update", false, "rewrite testdata/experiments.golden from the current tree")

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
// registry entry rendered at RunOpts{} — the bytes `privbench
// -experiment=all` prints — compared with the committed file. Every
// value in it is virtual time or a modeled count, so it is the same on
// any host, at any sweep parallelism, with or without the race
// detector. A change that moves a byte either has a bug or is changing
// a result of the paper's evaluation; in the second case regenerate
// with
//
//	go test ./internal/harness -run TestExperimentsGolden -update
//
// and justify the diff of the golden in review.
func TestExperimentsGolden(t *testing.T) {
	const path = "testdata/experiments.golden"
	var got string
	for _, e := range harness.Experiments() {
		got += render(t, e, harness.RunOpts{})
	}
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotLines := strings.SplitAfter(got, "\n")
	wantLines := strings.SplitAfter(string(want), "\n")
	for i := range gotLines {
		if i >= len(wantLines) || gotLines[i] != wantLines[i] {
			var w string
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Fatalf("experiment output differs from %s at line %d:\n got: %q\nwant: %q", path, i+1, gotLines[i], w)
		}
	}
	t.Fatalf("experiment output is %d lines, %s has %d", len(gotLines), path, len(wantLines))
}
