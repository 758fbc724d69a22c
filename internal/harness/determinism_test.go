package harness_test

import (
	"bytes"
	"fmt"
	"testing"

	"provirt/internal/harness"
	"provirt/internal/trace"
	"provirt/internal/workloads/adcirc"
)

// The sweep runner parallelizes experiments by running independent
// worlds on worker goroutines; every world is single-threaded and
// seeded, so the rendered rows and tables must be byte-identical to
// serial execution. These tests pin that contract for the Fig. 5
// startup sweep and the Table 2 / Fig. 9 ADCIRC sweep.

func TestFig5ParallelSweepIsDeterministic(t *testing.T) {
	run := func(par int) (string, string) {
		rows, tbl, err := harness.Fig5Startup(harness.Opts{Parallelism: par}, 2)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%#v", rows), tbl.String()
	}
	serialRows, serialTbl := run(1)
	parallelRows, parallelTbl := run(4)
	if serialRows != parallelRows {
		t.Errorf("fig5 rows diverge between serial and parallel sweeps:\nserial:   %s\nparallel: %s", serialRows, parallelRows)
	}
	if serialTbl != parallelTbl {
		t.Errorf("fig5 table diverges between serial and parallel sweeps:\nserial:\n%s\nparallel:\n%s", serialTbl, parallelTbl)
	}
}

func TestFig9ParallelSweepIsDeterministic(t *testing.T) {
	cfg := adcirc.DefaultConfig()
	cfg.Width, cfg.Height, cfg.Steps, cfg.LBPeriod = 96, 128, 8, 4
	cores := []int{1, 2, 4}

	run := func(par int) (rows string, t2 string, f9 string) {
		r, tbl2, tbl9, err := harness.AdcircScaling(harness.Opts{Parallelism: par}, cfg, cores)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%#v", r), tbl2.String(), tbl9.String()
	}
	sRows, sT2, sF9 := run(1)
	pRows, pT2, pF9 := run(4)

	if sRows != pRows {
		t.Errorf("adcirc rows diverge between serial and parallel sweeps:\nserial:   %s\nparallel: %s", sRows, pRows)
	}
	if sT2 != pT2 {
		t.Errorf("table 2 diverges:\nserial:\n%s\nparallel:\n%s", sT2, pT2)
	}
	if sF9 != pF9 {
		t.Errorf("figure 9 diverges:\nserial:\n%s\nparallel:\n%s", sF9, pF9)
	}
}

// SimWorkers shards a single world's event loop across lookahead
// domains (sim.ParallelEngine). The conservative-window protocol fires
// events in the same (time, domain, seq) total order the serial
// engine uses, so rows, tables, and the full trace byte stream must be
// identical at every worker count. The scale experiment is the one
// that actually shards (flat world, per-PE domains); pinning it here
// is the harness-level end of the byte-identity chain that starts at
// sim.TestParallelEngineMatchesSerial.
func TestScaleSimWorkersIsDeterministic(t *testing.T) {
	const vps = 2048
	run := func(workers int) (string, string, []byte) {
		rec := trace.NewRecorder(append(trace.DefaultKinds(), trace.KindEngineEvent)...)
		o := harness.Opts{
			SimWorkers: workers,
			Trace:      &harness.TraceSel{Point: "vps=2048", Rec: rec},
		}
		rows, tbl, err := harness.ScaleExperiment(o, vps)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%#v", rows), tbl.String(), jsonl(t, rec)
	}
	serialRows, serialTbl, serialTrace := run(0)
	for _, workers := range []int{1, 2, 8} {
		rows, tbl, tr := run(workers)
		if rows != serialRows {
			t.Errorf("sim-workers=%d: scale rows diverge from serial:\nserial:   %s\nparallel: %s", workers, serialRows, rows)
		}
		if tbl != serialTbl {
			t.Errorf("sim-workers=%d: scale table diverges from serial:\nserial:\n%s\nparallel:\n%s", workers, serialTbl, tbl)
		}
		if !bytes.Equal(tr, serialTrace) {
			t.Errorf("sim-workers=%d: scale trace bytes diverge from serial (%d vs %d bytes)", workers, len(tr), len(serialTrace))
		}
	}
}
