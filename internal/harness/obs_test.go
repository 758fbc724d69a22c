package harness_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"provirt/internal/harness"
	"provirt/internal/obs"
	"provirt/internal/sim"
)

// Host metrics observe the runtime that executes simulations, never
// the virtual clock, so enabling them must change no experiment
// output: rows, tables, and trace bytes are bit-identical with
// metrics on or off. And because instrument updates commute (atomic
// adds and maxima), the deterministic text snapshot is byte-identical
// across repeated runs at a fixed parallelism. These tests pin both
// contracts for Fig. 5, Fig. 8, and the ftsweep.

// ftMTBFs keeps the ftsweep cases here fast: one short MTBF exercises
// crashes, recovery, and checkpointing.
func ftMTBFs() []sim.Time {
	return []sim.Time{sim.Time(120 * time.Millisecond)}
}

// withObs runs fn with metrics installed into a fresh registry and
// guarantees the no-op state is restored afterwards.
func withObs(t *testing.T, fn func(r *obs.Registry)) {
	t.Helper()
	r := obs.NewRegistry()
	harness.EnableObs(r)
	defer harness.EnableObs(nil)
	fn(r)
}

func TestObsLeavesRowsAndTracesBitIdentical(t *testing.T) {
	type capture struct {
		fig5Rows, fig5Tbl string
		fig5Trace         []byte
		fig8Rows, fig8Tbl string
		fig8Trace         []byte
		ftRows, ftTbl     string
		ftTrace           []byte
	}
	run := func(o harness.Opts) capture {
		var c capture

		fo, fig5Rec := tracing(o.Parallelism, "method=pieglobals,nodes=2")
		rows5, tbl5, err := harness.Fig5Startup(fo, 2)
		if err != nil {
			t.Fatal(err)
		}
		c.fig5Rows, c.fig5Tbl, c.fig5Trace = fmt.Sprintf("%#v", rows5), tbl5.String(), jsonl(t, fig5Rec)

		eo, fig8Rec := tracing(o.Parallelism, "method=tlsglobals,heap=1048576")
		rows8, tbl8, err := harness.Fig8Migration(eo)
		if err != nil {
			t.Fatal(err)
		}
		c.fig8Rows, c.fig8Tbl, c.fig8Trace = fmt.Sprintf("%#v", rows8), tbl8.String(), jsonl(t, fig8Rec)

		to, ftRec := tracing(o.Parallelism, "method=pieglobals,target=fs,mtbf=120ms")
		rowsFT, tblFT, err := harness.FTSweep(to, ftMTBFs())
		if err != nil {
			t.Fatal(err)
		}
		c.ftRows, c.ftTbl, c.ftTrace = fmt.Sprintf("%#v", rowsFT), tblFT.String(), jsonl(t, ftRec)
		return c
	}

	plain := run(harness.Opts{Parallelism: 4})
	var instrumented capture
	withObs(t, func(r *obs.Registry) {
		instrumented = run(harness.Opts{Parallelism: 4})

		// The instruments must actually have observed the runs — a
		// silently disabled registry would make this test vacuous.
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		for _, frag := range []string{"sim_events_dispatched_total", "ft_recoveries_total", "mem_snapshots_total"} {
			if !strings.Contains(buf.String(), frag+" ") {
				t.Fatalf("registry missing %s after instrumented runs", frag)
			}
			line := buf.String()[strings.Index(buf.String(), frag+" "):]
			if strings.HasPrefix(line, frag+" 0\n") {
				t.Fatalf("%s stayed zero across fig5+fig8+ftsweep", frag)
			}
		}
	})

	for _, cmp := range []struct {
		name    string
		off, on string
	}{
		{"fig5 rows", plain.fig5Rows, instrumented.fig5Rows},
		{"fig5 table", plain.fig5Tbl, instrumented.fig5Tbl},
		{"fig8 rows", plain.fig8Rows, instrumented.fig8Rows},
		{"fig8 table", plain.fig8Tbl, instrumented.fig8Tbl},
		{"ftsweep rows", plain.ftRows, instrumented.ftRows},
		{"ftsweep table", plain.ftTbl, instrumented.ftTbl},
	} {
		if cmp.off != cmp.on {
			t.Errorf("%s diverge with metrics on:\noff: %s\non:  %s", cmp.name, cmp.off, cmp.on)
		}
	}
	if !bytes.Equal(plain.fig5Trace, instrumented.fig5Trace) {
		t.Error("fig5 trace bytes diverge with metrics on")
	}
	if !bytes.Equal(plain.fig8Trace, instrumented.fig8Trace) {
		t.Error("fig8 trace bytes diverge with metrics on")
	}
	if !bytes.Equal(plain.ftTrace, instrumented.ftTrace) {
		t.Error("ftsweep trace bytes diverge with metrics on")
	}
}

// The deterministic text snapshot: at a fixed parallelism, two runs of
// the same experiments produce byte-identical snapshots.
func TestObsTextSnapshotDeterministic(t *testing.T) {
	capture := func() string {
		var out string
		withObs(t, func(r *obs.Registry) {
			o := harness.Opts{Parallelism: 4}
			if _, _, err := harness.Fig5Startup(o, 2); err != nil {
				t.Fatal(err)
			}
			if _, _, err := harness.Fig8Migration(o); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := r.WriteText(&buf); err != nil {
				t.Fatal(err)
			}
			out = buf.String()
		})
		return out
	}
	a := capture()
	b := capture()
	if a != b {
		t.Errorf("text snapshot diverges across identical runs:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
	if !strings.Contains(a, "sim_events_dispatched_total") {
		t.Fatalf("snapshot missing engine counters:\n%s", a)
	}
}
