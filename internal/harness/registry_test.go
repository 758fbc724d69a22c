package harness_test

import (
	"os"
	"strings"
	"testing"

	"provirt/internal/harness"
	"provirt/internal/trace"
)

// TestRegistryGoldenSmoke runs every registered experiment on four
// sweep workers and pins the engine-wide determinism contract at the
// registry boundary: every entry renders non-empty tables, and the
// rendered bytes are the ones testdata/experiments.golden holds for it,
// which TestExperimentsGolden renders at the default parallelism.
func TestRegistryGoldenSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	golden, err := os.ReadFile("testdata/experiments.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range harness.Experiments() {
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			got := render(t, e, harness.RunOpts{Opts: harness.Opts{Parallelism: 4}})
			if strings.TrimSpace(got) == "" {
				t.Fatalf("%s rendered no table text", e.Name)
			}
			if !strings.Contains(string(golden), got) {
				t.Errorf("%s at -parallel 4 is not what experiments.golden holds:\n%s", e.Name, got)
			}
		})
	}
}

// TestRegistryLookup pins the registry's shape: canonical names
// resolve, aliases resolve to the same entry, unknown names miss, and
// the enumeration order is the `-experiment=all` execution order.
func TestRegistryLookup(t *testing.T) {
	wantOrder := []string{
		"tables", "fig5", "fig5scale", "fig6", "fig7", "fig8",
		"icache", "memory", "ftsweep", "table2", "scale", "elastic",
	}
	exps := harness.Experiments()
	if len(exps) != len(wantOrder) {
		t.Fatalf("%d experiments registered, want %d", len(exps), len(wantOrder))
	}
	for i, e := range exps {
		if e.Name != wantOrder[i] {
			t.Errorf("experiment %d is %q, want %q", i, e.Name, wantOrder[i])
		}
		if e.Description == "" {
			t.Errorf("%s has no description", e.Name)
		}
		got, ok := harness.LookupExperiment(e.Name)
		if !ok || got.Name != e.Name {
			t.Errorf("LookupExperiment(%q) failed", e.Name)
		}
	}
	if e, ok := harness.LookupExperiment("fig9"); !ok || e.Name != "table2" {
		t.Error("alias fig9 should resolve to table2")
	}
	if _, ok := harness.LookupExperiment("fig99"); ok {
		t.Error("unknown experiment resolved")
	}
	names := harness.ExperimentNames()
	if len(names) != len(wantOrder)+1 { // +1 for the fig9 alias
		t.Errorf("ExperimentNames has %d entries: %v", len(names), names)
	}
}

// Every experiment runs once with a selection that matches nothing.
// Its labels must be unique, so a selection never sends the events of
// two worlds to one recorder, and every experiment that runs a point
// must offer one.
func TestEveryExperimentLabelsItsPointsUniquely(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	pointless := map[string]bool{"tables": true, "icache": true}
	for _, e := range harness.Experiments() {
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			rec := trace.NewRecorder()
			sel := &harness.TraceSel{Point: "no-such-point", Rec: rec}
			if _, err := e.Run(harness.RunOpts{Opts: harness.Opts{Trace: sel}, ScaleVPs: 4096}); err != nil {
				t.Fatal(err)
			}
			if rec.Len() != 0 {
				t.Errorf("a label no point carries recorded %d events", rec.Len())
			}
			if len(sel.Offered) == 0 && !pointless[e.Name] {
				t.Error("offered no label")
			}
			seen := map[string]bool{}
			for _, l := range sel.Offered {
				if l == "" || seen[l] {
					t.Errorf("label %q is empty or offered twice", l)
				}
				seen[l] = true
			}
		})
	}
}
