package harness

import (
	"fmt"
	"time"

	"provirt/internal/ampi"
	"provirt/internal/core"
	"provirt/internal/ft"
	"provirt/internal/scenario"
	"provirt/internal/sim"
	"provirt/internal/trace"
	"provirt/internal/workloads/synth"
)

// FTRow is one point of the fault-tolerance sweep: a supervised job
// under a seeded MTBF crash process, with Daly-optimal checkpointing to
// one of the two targets, compared against its own fault-free baseline.
type FTRow struct {
	Method core.Kind
	Target ampi.CheckpointTarget
	MTBF   sim.Time
	// Interval is the Daly-optimal checkpoint interval derived from the
	// measured per-checkpoint cost and the MTBF.
	Interval sim.Time
	// Baseline is the job's fault-free time with no checkpointing;
	// Total is the supervised time-to-solution under the crash plan
	// (all attempts); Overhead is Total/Baseline.
	Baseline sim.Time
	Total    sim.Time
	Overhead float64
	// Checkpoints and Recoveries count snapshots taken and crashes
	// recovered from; MeanRecovery is the average rework+downtime per
	// crash, and RestoredBytes the snapshot volume restarts read back
	// (zero when every restart was from scratch).
	Checkpoints   int
	Recoveries    int
	MeanRecovery  sim.Time
	RestoredBytes uint64
}

// The sweep's job: an iterative checkpointable kernel sized so the
// default MTBF list produces a handful of crashes at the short end and
// none at the long end.
const (
	ftIters   = 24
	ftCompute = 8 * time.Millisecond
	ftNodes   = 3
	ftVPs     = 6
	ftDir     = "/scratch/ftsweep"
)

// FTSweepMTBFs is the default MTBF list, bracketing the job's length
// from crash-every-phase to effectively fault-free.
func FTSweepMTBFs() []sim.Time {
	return []sim.Time{
		120 * time.Millisecond,
		240 * time.Millisecond,
		480 * time.Millisecond,
		960 * time.Millisecond,
	}
}

// FTSweepMethods are the privatization methods the sweep compares (the
// two migratable methods the paper's recovery story rests on).
func FTSweepMethods() []core.Kind {
	return []core.Kind{core.KindTLSglobals, core.KindPIEglobals}
}

func ftConfig(kind core.Kind, tracer trace.Tracer) ampi.Config {
	// No Program here: ft.Run constructs the program fresh for every
	// attempt, so this Spec is lowered to a Config only.
	sp := scenario.Spec{
		Machine: machineShape(ftNodes, 1, 2),
		VPs:     ftVPs,
		Method:  kind,
		Tracer:  tracer,
	}
	cfg, err := sp.Config()
	if err != nil {
		panic(fmt.Sprintf("ftsweep: %v", err))
	}
	return cfg
}

// ftSeed derives each sweep point's crash-plan seed purely from its
// configuration, so plans are identical at any sweep parallelism.
func ftSeed(kind core.Kind, target ampi.CheckpointTarget, mtbf sim.Time) uint64 {
	return 0x9e3779b97f4a7c15 ^ uint64(kind)<<40 ^ uint64(target)<<32 ^ uint64(mtbf)
}

// ftRun builds and runs one world for a sweep point's measurement.
func ftRun(cfg ampi.Config, prog *ampi.Program) (*ampi.World, error) {
	w, err := ampi.NewWorld(cfg, prog)
	if err != nil {
		return nil, err
	}
	if err := w.Run(); err != nil {
		return nil, err
	}
	return w, nil
}

// ftPoint measures one sweep point: a fault-free no-checkpoint
// baseline, a measured per-checkpoint cost, and then the supervised run
// under the point's seeded crash plan.
func ftPoint(o Opts, kind core.Kind, target ampi.CheckpointTarget, mtbf sim.Time) (FTRow, error) {
	row := FTRow{Method: kind, Target: target, MTBF: mtbf}

	// Fault-free baseline, no checkpointing.
	finals := make([]uint64, ftVPs)
	w, err := ftRun(ftConfig(kind, nil), synth.Checkpointed(ftIters, ftCompute, finals))
	if err != nil {
		return row, err
	}
	row.Baseline = w.Time()

	// Per-checkpoint cost: the same job snapshotting at every iteration
	// boundary; the slowdown per snapshot is Daly's C for this method
	// and target.
	ckCfg := ftConfig(kind, nil)
	ckCfg.Checkpoint = &ampi.CheckpointPolicy{Target: target, Dir: ftDir, Interval: 1}
	wck, err := ftRun(ckCfg, synth.Checkpointed(ftIters, ftCompute, finals))
	if err != nil {
		return row, err
	}
	var ckCost sim.Time
	if wck.Checkpoints > 0 && wck.Time() > row.Baseline {
		ckCost = (wck.Time() - row.Baseline) / sim.Time(wck.Checkpoints)
	}
	row.Interval = ft.DalyInterval(ckCost, mtbf)

	// The supervised run: Daly-interval checkpointing under a seeded
	// crash plan whose horizon generously covers the job. MaxRestarts
	// exceeds the plan's crash count, so the supervisor never gives up
	// before the plan runs dry.
	cfg := ftConfig(kind, o.tracerFor(func(ts *TraceSel) bool {
		return ts.Method == kind && ts.Target == target && ts.MTBF == mtbf
	}))
	if row.Interval > 0 {
		cfg.Checkpoint = &ampi.CheckpointPolicy{Target: target, Dir: ftDir, Interval: row.Interval}
	}
	plan := ft.CrashPlan(ftSeed(kind, target, mtbf), ftNodes, mtbf, 4*row.Baseline)
	supFinals := make([]uint64, ftVPs)
	rep, err := ft.Run(ft.Job{
		Config:      cfg,
		Program:     func() *ampi.Program { return synth.Checkpointed(ftIters, ftCompute, supFinals) },
		Plan:        plan,
		Recovery:    ft.Spare,
		MaxRestarts: len(plan.Crashes()) + 1,
	})
	if err != nil {
		return row, err
	}
	for rank, got := range supFinals {
		if want := synth.CheckpointedAcc(ftIters, rank); got != want {
			return row, fmt.Errorf("rank %d finished with acc %d, want %d: recovery lost or double-counted work", rank, got, want)
		}
	}
	row.Total = rep.TotalTime
	row.Overhead = float64(rep.TotalTime) / float64(row.Baseline)
	row.Checkpoints = rep.Checkpoints
	row.Recoveries = len(rep.Recoveries)
	row.MeanRecovery = rep.MeanRecovery()
	for _, rec := range rep.Recoveries {
		row.RestoredBytes += rec.RestoredBytes
	}
	return row, nil
}

// FTSweep reproduces the resilience figure: supervised time-to-solution
// versus machine MTBF, for each privatization method and checkpoint
// target, with the checkpoint interval set to Daly's optimum for each
// point. Every run is a pure function of its configuration — crash
// plans are compiled from per-point seeds before the run — so rows,
// tables, and any selected trace are byte-identical at any sweep
// parallelism. A nil mtbfs selects FTSweepMTBFs().
func FTSweep(o Opts, mtbfs []sim.Time) ([]FTRow, *trace.Table, error) {
	if mtbfs == nil {
		mtbfs = FTSweepMTBFs()
	}
	kinds := FTSweepMethods()
	targets := []ampi.CheckpointTarget{ampi.TargetFS, ampi.TargetBuddy}
	rows := make([]FTRow, len(mtbfs)*len(kinds)*len(targets))
	err := o.runner().Run(len(rows), func(i int) error {
		mtbf := mtbfs[i/(len(kinds)*len(targets))]
		kind := kinds[i/len(targets)%len(kinds)]
		target := targets[i%len(targets)]
		row, err := ftPoint(o, kind, target, mtbf)
		if err != nil {
			return fmt.Errorf("ftsweep %s/%s mtbf=%v: %w", kind, target, mtbf, err)
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	t := trace.NewTable("Fault tolerance: supervised time-to-solution vs MTBF (Daly-optimal checkpointing)",
		"Method", "Target", "MTBF", "Daly interval", "Baseline", "Total", "Overhead", "Ckpts", "Crashes", "Mean recovery")
	for _, r := range rows {
		interval := "off"
		if r.Interval > 0 {
			interval = trace.FormatDuration(r.Interval)
		}
		t.AddRow(core.CapabilitiesOf(r.Method).DisplayName, r.Target.String(),
			trace.FormatDuration(r.MTBF), interval,
			trace.FormatDuration(r.Baseline), trace.FormatDuration(r.Total),
			pct(r.Overhead), fmt.Sprint(r.Checkpoints), fmt.Sprint(r.Recoveries),
			trace.FormatDuration(r.MeanRecovery))
	}
	return rows, t, nil
}
