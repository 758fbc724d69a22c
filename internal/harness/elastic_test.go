package harness_test

import (
	"bytes"
	"fmt"
	"testing"

	"provirt/internal/ampi"
	"provirt/internal/core"
	"provirt/internal/ft"
	"provirt/internal/harness"
	"provirt/internal/trace"
)

// The elastic sweep compiles every churn plan from seeds before any
// world runs, so rows, tables, and a selected trace must be
// byte-identical at any sweep parallelism.
func TestElasticSweepIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full elastic sweep twice")
	}
	run := func(par int) (string, string, []byte) {
		rec := trace.NewRecorder(append(trace.DefaultKinds(), trace.KindEngineEvent)...)
		o := harness.Opts{
			Parallelism: par,
			Trace:       &harness.TraceSel{Point: "method=pieglobals,target=fs,churn=spot-busy", Rec: rec},
		}
		rows, tbl, err := harness.ElasticSweep(o, nil)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%#v", rows), tbl.String(), jsonl(t, rec)
	}
	serialRows, serialTbl, serialTrace := run(1)
	if len(serialTrace) == 0 {
		t.Fatal("trace selection matched no elastic run")
	}
	rows, tbl, tr := run(4)
	if rows != serialRows {
		t.Error("parallel=4: elastic rows diverge from serial")
	}
	if tbl != serialTbl {
		t.Errorf("parallel=4: elastic table diverges:\nserial:\n%s\ngot:\n%s", serialTbl, tbl)
	}
	if !bytes.Equal(tr, serialTrace) {
		t.Errorf("parallel=4: elastic trace bytes diverge (%d vs %d bytes)", len(tr), len(serialTrace))
	}
}

// TestElasticDrainDividend pins the sweep's headline result on every
// method/target combination: the noticed-eviction regime drains with
// zero rework, while the identical eviction schedule with no notice
// crashes, reworks lost iterations, and costs more on both axes
// (time-to-solution and node-hours). The calm control stays
// churn-free, and the arrival surge spends more node-hours than calm.
func TestElasticDrainDividend(t *testing.T) {
	rows, _, err := harness.ElasticSweep(harness.Opts{Parallelism: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	byRegime := func(kind core.Kind, target ampi.CheckpointTarget, regime string) harness.ElasticRow {
		for _, r := range rows {
			if r.Method == kind && r.Target == target && r.Regime == regime {
				return r
			}
		}
		t.Fatalf("no row for %v/%v %s", kind, target, regime)
		return harness.ElasticRow{}
	}
	for _, kind := range harness.FTSweepMethods() {
		for _, target := range []ampi.CheckpointTarget{ampi.TargetFS, ampi.TargetBuddy} {
			calm := byRegime(kind, target, "calm")
			busy := byRegime(kind, target, "spot-busy")
			blind := byRegime(kind, target, "spot-blind")
			surge := byRegime(kind, target, "surge")

			if calm.Epochs != 0 || calm.ReworkForced != 0 {
				t.Errorf("%v/%v calm: unexpected churn: %+v", kind, target, calm)
			}
			if busy.Epochs == 0 || busy.Crashed != 0 || busy.Drained != busy.Epochs {
				t.Errorf("%v/%v spot-busy: evictions should all drain: %+v", kind, target, busy)
			}
			if busy.ReworkNoticed != 0 {
				t.Errorf("%v/%v spot-busy: drained evictions reworked %v; drains are zero-rework by construction",
					kind, target, busy.ReworkNoticed)
			}
			if blind.Crashed == 0 || blind.Drained != 0 {
				t.Errorf("%v/%v spot-blind: zero-notice evictions should crash: %+v", kind, target, blind)
			}
			if blind.ReworkForced <= 0 {
				t.Errorf("%v/%v spot-blind: crashes reworked nothing", kind, target)
			}
			if blind.Total <= busy.Total {
				t.Errorf("%v/%v: crashing (%v) should cost more time than draining (%v) under the same eviction schedule",
					kind, target, blind.Total, busy.Total)
			}
			if blind.NodeSeconds <= busy.NodeSeconds {
				t.Errorf("%v/%v: crashing (%v) should cost more node-seconds than draining (%v)",
					kind, target, blind.NodeSeconds, busy.NodeSeconds)
			}
			if surge.NodeSeconds <= calm.NodeSeconds {
				t.Errorf("%v/%v surge: arrivals should raise node-seconds above calm (%v vs %v)",
					kind, target, surge.NodeSeconds, calm.NodeSeconds)
			}
		}
	}
}

// A regime list the caller passes replaces the default list.
func TestElasticCustomRegime(t *testing.T) {
	regime := harness.ElasticRegime{Name: "custom", Churn: ft.ChurnSpec{
		Seed: 20, EvictionEvery: 80_000_000, Notice: 120_000_000, Horizon: 200_000_000, MaxEvents: 2,
	}}
	rows, tbl, err := harness.ElasticSweep(harness.Opts{Parallelism: 2}, []harness.ElasticRegime{regime})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // 2 methods x 2 targets x 1 regime
		t.Fatalf("custom regime produced %d rows, want 4", len(rows))
	}
	for _, r := range rows {
		if r.Regime != "custom" {
			t.Errorf("row regime %q, want custom", r.Regime)
		}
		if r.Epochs == 0 {
			t.Errorf("%v/%v: custom churn executed no membership changes", r.Method, r.Target)
		}
	}
	if tbl.String() == "" {
		t.Error("empty table")
	}
}
