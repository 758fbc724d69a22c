package harness_test

import (
	"crypto/sha256"
	"encoding/hex"
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

// TestScaleSimWorkersIsDeterministic pins the 65 536-rank scale run —
// rows, table and the full trace, engine dispatches included — to
// recorded digests, with the Opts.SimWorkers value the benchmark sets:
// nothing reads it, so the bytes are the default run's.
func TestScaleSimWorkersIsDeterministic(t *testing.T) {
	const (
		vps        = 65536
		wantRows   = "d060d31fbcf392870889ab727a9cb2596aa00a4e3efde3ea458e618dcea0b8c3"
		wantTable  = "47f63cb6b7ba6b9a6c3f46d8ae60d68f1fd6ad4c8e71b940334c4f55ae8b7ecb"
		wantTrace  = "37b1fa3148b929c7d2f1a5c7923193216c85c9d2bdc5bf78dbcd36a457b52b33"
		traceBytes = 15918559
	)
	rec := trace.NewRecorder(append(trace.DefaultKinds(), trace.KindEngineEvent)...)
	o := harness.Opts{
		SimWorkers: 2,
		Trace:      &harness.TraceSel{Point: "vps=65536", Rec: rec},
	}
	rows, tbl, err := harness.ScaleExperiment(o, vps)
	if err != nil {
		t.Fatal(err)
	}
	tr := jsonl(t, rec)
	if got := digest(fmt.Sprintf("%#v", rows)); got != wantRows {
		t.Errorf("rows digest %s, want %s:\n%#v", got, wantRows, rows)
	}
	if got := digest(tbl.String()); got != wantTable {
		t.Errorf("table digest %s, want %s:\n%s", got, wantTable, tbl)
	}
	if got := digest(string(tr)); got != wantTrace || len(tr) != traceBytes {
		t.Errorf("trace digest %s (%d bytes), want %s (%d bytes)", got, len(tr), wantTrace, traceBytes)
	}
}

// digest is the hex SHA-256 of s.
func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}
