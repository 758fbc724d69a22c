package ft_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"

	"provirt/internal/ampi"
	"provirt/internal/core"
	"provirt/internal/ft"
	"provirt/internal/machine"
	"provirt/internal/sim"
	"provirt/internal/trace"
	"provirt/internal/workloads/synth"
)

const (
	testIters   = 8
	testCompute = 2 * time.Millisecond
)

func testConfig(nodes, vps int, target ampi.CheckpointTarget, interval sim.Time) ampi.Config {
	return ampi.Config{
		Machine:   machine.Config{Nodes: nodes, ProcsPerNode: 1, PEsPerProc: 2},
		VPs:       vps,
		Privatize: core.KindPIEglobals,
		Checkpoint: &ampi.CheckpointPolicy{
			Target:   target,
			Dir:      "/scratch/ckpt",
			Interval: interval,
		},
	}
}

// probe runs the job fault-free and reports its setup and total time,
// so tests can aim crashes mid-run without hard-coding timings.
func probe(t testing.TB, cfg ampi.Config) (setup, total sim.Time) {
	t.Helper()
	finals := make([]uint64, cfg.VPs)
	w, err := ampi.NewWorld(cfg, synth.Checkpointed(testIters, testCompute, finals))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	return w.SetupDone, w.Time()
}

func checkFinals(t *testing.T, finals []uint64) {
	t.Helper()
	for rank, got := range finals {
		if want := synth.CheckpointedAcc(testIters, rank); got != want {
			t.Errorf("rank %d: acc = %d, want %d (work lost or double-counted)", rank, got, want)
		}
	}
}

func TestSpareRecoveryFromFSCheckpoint(t *testing.T) {
	cfg := testConfig(2, 4, ampi.TargetFS, 5*time.Millisecond)
	setup, total := probe(t, cfg)
	crashAt := setup + (total-setup)*3/5

	finals := make([]uint64, cfg.VPs)
	rep, err := ft.Run(ft.Job{
		Config:   cfg,
		Program:  func() *ampi.Program { return synth.Checkpointed(testIters, testCompute, finals) },
		Plan:     ft.Plan{Faults: []ft.Fault{{At: crashAt, Node: 1}}},
		Recovery: ft.Spare,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one crash, one recovery)", rep.Attempts)
	}
	checkFinals(t, finals)
	rec := rep.Recoveries[0]
	if rec.Node != 1 || rec.CrashAt != crashAt {
		t.Errorf("recovery record = %+v, want node 1 at %v", rec, crashAt)
	}
	if rec.Rework <= 0 || rec.Downtime <= 0 || rec.RestoredBytes == 0 {
		t.Errorf("recovery accounting empty: %+v", rec)
	}
	if rec.Shrunk {
		t.Error("spare recovery marked shrunk")
	}
	if rep.Checkpoints == 0 {
		t.Error("no checkpoints were taken")
	}
	if rep.TotalTime <= total {
		t.Errorf("total time %v under supervision with a crash should exceed fault-free %v", rep.TotalTime, total)
	}
	if got := len(rep.World.Cluster.Nodes); got != 2 {
		t.Errorf("spare recovery ended with %d nodes, want 2", got)
	}
}

func TestShrinkRecoveryFromBuddyCheckpoint(t *testing.T) {
	cfg := testConfig(3, 6, ampi.TargetBuddy, 5*time.Millisecond)
	setup, total := probe(t, cfg)
	crashAt := setup + (total-setup)*3/5

	finals := make([]uint64, cfg.VPs)
	rep, err := ft.Run(ft.Job{
		Config:   cfg,
		Program:  func() *ampi.Program { return synth.Checkpointed(testIters, testCompute, finals) },
		Plan:     ft.Plan{Faults: []ft.Fault{{At: crashAt, Node: 1}}},
		Recovery: ft.Shrink,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", rep.Attempts)
	}
	checkFinals(t, finals)
	rec := rep.Recoveries[0]
	if !rec.Shrunk {
		t.Error("shrink recovery not marked shrunk")
	}
	if rec.RestoredBytes == 0 {
		t.Error("buddy restore reported zero bytes")
	}
	if got := len(rep.World.Cluster.Nodes); got != 2 {
		t.Errorf("shrunk job ended with %d nodes, want 2", got)
	}
	// No filesystem involved: buddy checkpoints and restores live in
	// memory and on the network.
	if n := rep.World.Cluster.FS.BytesRead; n != 0 {
		t.Errorf("buddy restore read %d bytes from the shared fs", n)
	}
}

func TestSpareRecoveryFromBuddyCheckpoint(t *testing.T) {
	cfg := testConfig(2, 4, ampi.TargetBuddy, 5*time.Millisecond)
	setup, total := probe(t, cfg)
	crashAt := setup + (total-setup)*3/5

	finals := make([]uint64, cfg.VPs)
	rep, err := ft.Run(ft.Job{
		Config:   cfg,
		Program:  func() *ampi.Program { return synth.Checkpointed(testIters, testCompute, finals) },
		Plan:     ft.Plan{Faults: []ft.Fault{{At: crashAt, Node: 0}}},
		Recovery: ft.Spare,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkFinals(t, finals)
	if rep.World.Cluster.FS.BytesRead != 0 || rep.World.Cluster.FS.BytesWritten != 0 {
		t.Error("buddy checkpointing touched the shared filesystem")
	}
}

func TestCrashBeforeFirstCheckpointRestartsFromScratch(t *testing.T) {
	cfg := testConfig(2, 4, ampi.TargetFS, 5*time.Millisecond)
	setup, _ := probe(t, cfg)
	// Crash during startup, long before any checkpoint exists.
	crashAt := setup / 2

	finals := make([]uint64, cfg.VPs)
	rep, err := ft.Run(ft.Job{
		Config:   cfg,
		Program:  func() *ampi.Program { return synth.Checkpointed(testIters, testCompute, finals) },
		Plan:     ft.Plan{Faults: []ft.Fault{{At: crashAt, Node: 0}}},
		Recovery: ft.Spare,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", rep.Attempts)
	}
	checkFinals(t, finals)
	rec := rep.Recoveries[0]
	if rec.RestoredBytes != 0 {
		t.Errorf("from-scratch restart restored %d bytes", rec.RestoredBytes)
	}
	if rec.Rework != crashAt {
		t.Errorf("rework = %v, want the whole crashed attempt (%v)", rec.Rework, crashAt)
	}
	if rec.Downtime <= 0 {
		t.Error("from-scratch restart reported zero downtime")
	}
}

func TestRepeatedCrashesExhaustRestarts(t *testing.T) {
	cfg := testConfig(2, 4, ampi.TargetFS, 5*time.Millisecond)
	setup, total := probe(t, cfg)
	crashAt := setup + (total-setup)/2
	// One crash per restart, far beyond the retry budget.
	var faults []ft.Fault
	for i := 0; i < 10; i++ {
		faults = append(faults, ft.Fault{At: crashAt * sim.Time(i+1), Node: i % 2})
	}
	finals := make([]uint64, cfg.VPs)
	rep, err := ft.Run(ft.Job{
		Config:      cfg,
		Program:     func() *ampi.Program { return synth.Checkpointed(testIters, testCompute, finals) },
		Plan:        ft.Plan{Faults: faults},
		Recovery:    ft.Spare,
		MaxRestarts: 2,
	})
	if err == nil {
		t.Fatal("supervisor kept restarting past MaxRestarts")
	}
	if rep.Attempts != 3 {
		t.Errorf("attempts = %d, want 3 (initial + 2 restarts)", rep.Attempts)
	}
}

// A fault-free supervised run must be bit-identical to a bare run: same
// virtual time, same application results, and byte-identical trace.
func TestFaultFreeSupervisedRunIsIdentical(t *testing.T) {
	run := func(supervised bool) (sim.Time, []uint64, []byte) {
		cfg := testConfig(2, 4, ampi.TargetFS, 5*time.Millisecond)
		rec := trace.NewRecorder()
		cfg.Tracer = rec
		finals := make([]uint64, cfg.VPs)
		prog := func() *ampi.Program { return synth.Checkpointed(testIters, testCompute, finals) }
		var w *ampi.World
		if supervised {
			rep, err := ft.Run(ft.Job{Config: cfg, Program: prog})
			if err != nil {
				t.Fatal(err)
			}
			w = rep.World
		} else {
			var err error
			w, err = ampi.NewWorld(cfg, prog())
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Run(); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := trace.WriteJSONL(&buf, rec.Events()); err != nil {
			t.Fatal(err)
		}
		return w.Time(), finals, buf.Bytes()
	}
	bareTime, bareFinals, bareTrace := run(false)
	supTime, supFinals, supTrace := run(true)
	if bareTime != supTime {
		t.Errorf("supervised fault-free time %v != bare %v", supTime, bareTime)
	}
	if fmt.Sprint(bareFinals) != fmt.Sprint(supFinals) {
		t.Errorf("supervised finals %v != bare %v", supFinals, bareFinals)
	}
	if !bytes.Equal(bareTrace, supTrace) {
		t.Errorf("supervised fault-free trace differs from bare run (%d vs %d bytes)",
			len(supTrace), len(bareTrace))
	}
}

// A crash placed after checkpoints exist must leave the full fault
// lifecycle in the trace: the fault itself, its detection, and one
// recover span per restored rank.
func TestTracedRecoveryEmitsFaultLifecycle(t *testing.T) {
	cfg := testConfig(2, 4, ampi.TargetFS, 5*time.Millisecond)
	setup, total := probe(t, cfg)
	crashAt := setup + (total-setup)*3/5

	rec := trace.NewRecorder()
	cfg.Tracer = rec
	finals := make([]uint64, cfg.VPs)
	rep, err := ft.Run(ft.Job{
		Config:   cfg,
		Program:  func() *ampi.Program { return synth.Checkpointed(testIters, testCompute, finals) },
		Plan:     ft.Plan{Faults: []ft.Fault{{At: crashAt, Node: 1}}},
		Recovery: ft.Spare,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recoveries[0].RestoredBytes == 0 {
		t.Fatal("crash was meant to land after a checkpoint; restart was from scratch")
	}
	kinds := map[trace.Kind]int{}
	for _, ev := range rec.Events() {
		kinds[ev.Kind]++
	}
	if kinds[trace.KindFault] != 1 || kinds[trace.KindDetect] != 1 {
		t.Errorf("one crash should record one fault and one detect event, got %d and %d",
			kinds[trace.KindFault], kinds[trace.KindDetect])
	}
	if kinds[trace.KindRecover] != cfg.VPs {
		t.Errorf("recover events = %d, want one per restored rank (%d)", kinds[trace.KindRecover], cfg.VPs)
	}
}

// A recovered run must reach the same application state as an
// uninterrupted one — and do so deterministically: same plan, same
// bytes.
func TestRecoveredRunIsDeterministic(t *testing.T) {
	run := func() (sim.Time, []uint64) {
		cfg := testConfig(2, 4, ampi.TargetFS, 5*time.Millisecond)
		setup, total := probe(t, cfg)
		finals := make([]uint64, cfg.VPs)
		rep, err := ft.Run(ft.Job{
			Config:  cfg,
			Program: func() *ampi.Program { return synth.Checkpointed(testIters, testCompute, finals) },
			Plan: ft.Plan{Faults: []ft.Fault{
				{At: setup + (total-setup)*3/5, Node: 1},
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.TotalTime, finals
	}
	t1, f1 := run()
	t2, f2 := run()
	if t1 != t2 || fmt.Sprint(f1) != fmt.Sprint(f2) {
		t.Errorf("recovered run not deterministic: (%v, %v) vs (%v, %v)", t1, f1, t2, f2)
	}
}

func TestCrashPlanDeterministicAndSeedSensitive(t *testing.T) {
	a := ft.CrashPlan(7, 4, time.Second, 10*time.Second)
	b := ft.CrashPlan(7, 4, time.Second, 10*time.Second)
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Error("same seed produced different plans")
	}
	if len(a.Faults) == 0 {
		t.Fatal("10x MTBF horizon sampled no crashes")
	}
	c := ft.CrashPlan(8, 4, time.Second, 10*time.Second)
	if fmt.Sprintf("%+v", a.Faults) == fmt.Sprintf("%+v", c.Faults) {
		t.Error("different seeds produced identical plans")
	}
	var last sim.Time
	for _, f := range a.Faults {
		if f.At <= last {
			t.Fatalf("crash times not strictly increasing: %v after %v", f.At, last)
		}
		if f.Node < 0 || f.Node >= 4 {
			t.Fatalf("crash node %d out of range", f.Node)
		}
		last = f.At
	}
	if empty := ft.CrashPlan(7, 4, 0, 10*time.Second); len(empty.Faults) != 0 {
		t.Error("zero MTBF should sample no crashes")
	}
}

func TestPlanShift(t *testing.T) {
	p := ft.Plan{Faults: []ft.Fault{
		{At: 100, Node: 0},
		{At: 150, Node: 1},
		{At: 300, Node: 1},
	}}
	s := p.Shift(150)
	want := []ft.Fault{{At: 150, Node: 1}}
	if fmt.Sprintf("%+v", s.Faults) != fmt.Sprintf("%+v", want) {
		t.Errorf("Shift(150) = %+v, want %+v", s.Faults, want)
	}
}

func TestOptimalIntervals(t *testing.T) {
	c := 6 * time.Minute
	m := 24 * time.Hour
	// Young's first-order optimum, sqrt(2·C·M) = sqrt(2 * 360s * 86400s)
	// ~= 7887.3s, is what Daly's estimate refines.
	young := time.Duration(math.Sqrt(2 * float64(c) * float64(m)))
	daly := ft.DalyInterval(c, m)
	if daly <= 0 || daly >= young {
		t.Errorf("DalyInterval %v should be positive and below Young %v for small C/M", daly, young)
	}
	// Difference from Young is dominated by the -C term at small C/M.
	if diff := young - daly; diff < c/2 || diff > 2*c {
		t.Errorf("Young - Daly = %v, expected near C = %v", diff, c)
	}
	if got := ft.DalyInterval(10*time.Hour, time.Hour); got != time.Hour {
		t.Errorf("DalyInterval with C >= 2M = %v, want MTBF", got)
	}
	if ft.DalyInterval(0, m) != 0 || ft.DalyInterval(c, 0) != 0 {
		t.Error("non-positive inputs should disable checkpointing")
	}
	// Longer MTBF, longer interval.
	if ft.DalyInterval(c, 2*m) <= daly {
		t.Error("DalyInterval not monotonic in MTBF")
	}
}
