package harness_test

import (
	"bytes"
	"fmt"
	"testing"

	"provirt/internal/harness"
	"provirt/internal/trace"
)

// Tracing one sweep point must not perturb results: hooks only read
// simulator state, so a traced sweep renders byte-identical rows and
// tables to an untraced one. And because the traced world is selected
// by configuration (not scheduling order) and runs single-threaded,
// the recorded event stream is byte-identical at any sweep
// parallelism. These tests pin both contracts for Fig. 5 and Fig. 8.

// tracing returns Opts carrying a fresh recorder for one sweep point.
func tracing(par int, label string) (harness.Opts, *trace.Recorder) {
	rec := trace.NewRecorder()
	return harness.Opts{Parallelism: par, Trace: &harness.TraceSel{Point: label, Rec: rec}}, rec
}

func jsonl(t *testing.T, rec *trace.Recorder) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, rec.Events()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFig5TracedRunMatchesUntraced(t *testing.T) {
	run := func(o harness.Opts) (string, string) {
		rows, tbl, err := harness.Fig5Startup(o, 2)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%#v", rows), tbl.String()
	}
	plainRows, plainTbl := run(harness.Opts{})
	o, rec := tracing(0, "method=pieglobals,nodes=2")
	tracedRows, tracedTbl := run(o)
	if rec.Len() == 0 {
		t.Fatal("trace selection matched no fig5 run")
	}
	if plainRows != tracedRows {
		t.Errorf("fig5 rows diverge when traced:\nuntraced: %s\ntraced:   %s", plainRows, tracedRows)
	}
	if plainTbl != tracedTbl {
		t.Errorf("fig5 table diverges when traced:\nuntraced:\n%s\ntraced:\n%s", plainTbl, tracedTbl)
	}
}

func TestFig8TracedRunMatchesUntraced(t *testing.T) {
	run := func(o harness.Opts) (string, string) {
		rows, tbl, err := harness.Fig8Migration(o)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%#v", rows), tbl.String()
	}
	plainRows, plainTbl := run(harness.Opts{})
	o, rec := tracing(0, "method=tlsglobals,heap=4194304")
	tracedRows, tracedTbl := run(o)
	if rec.Len() == 0 {
		t.Fatal("trace selection matched no fig8 run")
	}
	if plainRows != tracedRows {
		t.Errorf("fig8 rows diverge when traced:\nuntraced: %s\ntraced:   %s", plainRows, tracedRows)
	}
	if plainTbl != tracedTbl {
		t.Errorf("fig8 table diverges when traced:\nuntraced:\n%s\ntraced:\n%s", plainTbl, tracedTbl)
	}
}

// A selection without a recorder attaches no tracer: the matched point
// runs with a nil recorder, as if untraced.
func TestSelectionWithoutRecorderRunsUntraced(t *testing.T) {
	sel := harness.TraceSel{Point: "method=pieglobals,nodes=2"}
	if _, _, err := harness.Fig5Startup(harness.Opts{Trace: &sel}, 2); err != nil {
		t.Fatal(err)
	}
}

func TestFig5TraceBytesParallelismInvariant(t *testing.T) {
	capture := func(par int) []byte {
		o, rec := tracing(par, "method=pieglobals,nodes=2")
		if _, _, err := harness.Fig5Startup(o, 2); err != nil {
			t.Fatal(err)
		}
		if rec.Len() == 0 {
			t.Fatalf("no events recorded at parallelism %d", par)
		}
		return jsonl(t, rec)
	}
	serial := capture(1)
	parallel := capture(4)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("fig5 trace bytes diverge between serial and parallel sweeps (%d vs %d bytes)",
			len(serial), len(parallel))
	}
}

func TestFig8TraceBytesParallelismInvariant(t *testing.T) {
	capture := func(par int) []byte {
		o, rec := tracing(par, "method=pieglobals,heap=1048576")
		if _, _, err := harness.Fig8Migration(o); err != nil {
			t.Fatal(err)
		}
		if rec.Len() == 0 {
			t.Fatalf("no events recorded at parallelism %d", par)
		}
		return jsonl(t, rec)
	}
	serial := capture(1)
	parallel := capture(4)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("fig8 trace bytes diverge between serial and parallel sweeps (%d vs %d bytes)",
			len(serial), len(parallel))
	}
}
