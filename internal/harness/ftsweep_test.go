package harness_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"provirt/internal/harness"
	"provirt/internal/sim"
	"provirt/internal/trace"
)

// The fault-tolerance sweep's crash plans are compiled from per-point
// seeds before any world runs, so the sweep inherits the same
// determinism contract as every other experiment: rows, tables, and a
// selected point's trace are byte-identical at any parallelism, traced
// or not.

func ftTestMTBFs() []sim.Time {
	return []sim.Time{120 * time.Millisecond, 960 * time.Millisecond}
}

func TestFTSweepParallelSweepIsDeterministic(t *testing.T) {
	run := func(par int) (string, string) {
		rows, tbl, err := harness.FTSweep(harness.Opts{Parallelism: par}, ftTestMTBFs())
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%#v", rows), tbl.String()
	}
	serialRows, serialTbl := run(1)
	parallelRows, parallelTbl := run(4)
	if serialRows != parallelRows {
		t.Errorf("ftsweep rows diverge between serial and parallel sweeps:\nserial:   %s\nparallel: %s", serialRows, parallelRows)
	}
	if serialTbl != parallelTbl {
		t.Errorf("ftsweep table diverges between serial and parallel sweeps:\nserial:\n%s\nparallel:\n%s", serialTbl, parallelTbl)
	}
}

func TestFaultTracedRunMatchesUntraced(t *testing.T) {
	run := func(o harness.Opts) (string, string) {
		rows, tbl, err := harness.FTSweep(o, ftTestMTBFs())
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%#v", rows), tbl.String()
	}
	plainRows, plainTbl := run(harness.Opts{})
	o, rec := tracing(0, "method=tlsglobals,target=fs,mtbf=120ms")
	tracedRows, tracedTbl := run(o)
	if rec.Len() == 0 {
		t.Fatal("trace selection matched no ftsweep run")
	}
	if plainRows != tracedRows {
		t.Errorf("ftsweep rows diverge when traced:\nuntraced: %s\ntraced:   %s", plainRows, tracedRows)
	}
	if plainTbl != tracedTbl {
		t.Errorf("ftsweep table diverges when traced:\nuntraced:\n%s\ntraced:\n%s", plainTbl, tracedTbl)
	}
	// The selected point's plan injects crashes, so the stream must
	// carry fault and detection events. (KindRecover appears only when a
	// crash strikes after a snapshot exists — that path is pinned by the
	// ft package's traced-recovery test, where the crash time is placed
	// deterministically.)
	kinds := map[trace.Kind]int{}
	for _, ev := range rec.Events() {
		kinds[ev.Kind]++
	}
	for _, k := range []trace.Kind{trace.KindFault, trace.KindDetect} {
		if kinds[k] == 0 {
			t.Errorf("traced supervised run recorded no %v events (kinds: %v)", k, kinds)
		}
	}
}

func TestFTSweepTraceBytesParallelismInvariant(t *testing.T) {
	capture := func(par int) []byte {
		o, rec := tracing(par, "method=pieglobals,target=buddy,mtbf=120ms")
		if _, _, err := harness.FTSweep(o, ftTestMTBFs()); err != nil {
			t.Fatal(err)
		}
		if rec.Len() == 0 {
			t.Fatal("trace selection matched no ftsweep run")
		}
		return jsonl(t, rec)
	}
	serial := capture(1)
	parallel := capture(4)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("selected ftsweep trace differs between serial (%d bytes) and parallel (%d bytes) sweeps",
			len(serial), len(parallel))
	}
}
