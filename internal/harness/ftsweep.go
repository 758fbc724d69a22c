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

// The sweep's job: the registered "checkpointed" workload (an iterative
// checkpointable kernel sized so the default MTBF list produces a
// handful of crashes at the short end and none at the long end; its
// ranks fail the run if recovery lost or double-counted work).
const (
	ftNodes = 3
	ftVPs   = 6
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

// checkpointedJob is the job both supervised sweeps run — the
// "checkpointed" workload, two PEs a node — bare: their points add a
// checkpoint policy and a fault or churn process to it.
func checkpointedJob(nodes, vps int, kind core.Kind) scenario.Spec {
	return scenario.Spec{Machine: machineShape(nodes, 1, 2), VPs: vps, Method: kind, Workload: "checkpointed"}
}

// ftSeed derives each sweep point's crash-plan seed purely from its
// configuration, so plans are identical at any sweep parallelism.
func ftSeed(kind core.Kind, target ampi.CheckpointTarget, mtbf sim.Time) uint64 {
	return 0x9e3779b97f4a7c15 ^ uint64(kind)<<40 ^ uint64(target)<<32 ^ uint64(mtbf)
}

// ftLabel names a point's supervised run; its two measurements add
// ",run=baseline" and ",run=every".
func ftLabel(r *FTRow) string {
	return fmt.Sprintf("method=%s,target=%s,mtbf=%v", r.Method, r.Target, r.MTBF)
}

// ftSupervisedSpec is a point's supervised run, given the Daly interval
// and baseline its two measurements produced: checkpointing at the
// interval (off when Daly says so) under the point's seeded crash
// process, sampled out to four baselines.
func ftSupervisedSpec(kind core.Kind, target ampi.CheckpointTarget, mtbf, interval, baseline sim.Time) scenario.Spec {
	sp := checkpointedJob(ftNodes, ftVPs, kind)
	if interval > 0 {
		sp.Checkpoint = &ampi.CheckpointPolicy{Target: target, Interval: interval}
	}
	sp.Faults = &ft.FaultSpec{Seed: ftSeed(kind, target, mtbf), MTBF: mtbf, Horizon: 4 * baseline}
	return sp
}

// ftMeasurePoints is the sweep's rows, one per (MTBF, method, target),
// and two measurements per row: the fault-free baseline, and the job
// snapshotting at every iteration boundary, whose slowdown per snapshot
// is Daly's C. A nil mtbfs selects FTSweepMTBFs().
func ftMeasurePoints(mtbfs []sim.Time) ([]FTRow, []point) {
	if mtbfs == nil {
		mtbfs = FTSweepMTBFs()
	}
	kinds := FTSweepMethods()
	targets := []ampi.CheckpointTarget{ampi.TargetFS, ampi.TargetBuddy}
	rows := make([]FTRow, len(mtbfs)*len(kinds)*len(targets))
	measure := make([]point, 0, 2*len(rows))
	for i := range rows {
		rows[i] = FTRow{
			MTBF:   mtbfs[i/(len(kinds)*len(targets))],
			Method: kinds[i/len(targets)%len(kinds)],
			Target: targets[i%len(targets)],
		}
		every := checkpointedJob(ftNodes, ftVPs, rows[i].Method)
		every.Checkpoint = &ampi.CheckpointPolicy{Target: rows[i].Target, Interval: 1}
		measure = append(measure,
			point{ftLabel(&rows[i]) + ",run=baseline", checkpointedJob(ftNodes, ftVPs, rows[i].Method)},
			point{ftLabel(&rows[i]) + ",run=every", every})
	}
	return rows, measure
}

// ftSupervisedPoints sets each row's baseline and Daly interval from its
// two measurements and returns its supervised run: checkpointing at that
// interval under a seeded crash process whose horizon covers the job.
func ftSupervisedPoints(rows []FTRow, measured []scenario.Row) []point {
	supervised := make([]point, len(rows))
	for i := range rows {
		r := &rows[i]
		base, every := measured[2*i], measured[2*i+1]
		r.Baseline = sim.Time(base.TimeNs())
		var ckCost sim.Time
		if t := sim.Time(every.TimeNs()); every.Checkpoints > 0 && t > r.Baseline {
			ckCost = (t - r.Baseline) / sim.Time(every.Checkpoints)
		}
		r.Interval = ft.DalyInterval(ckCost, r.MTBF)
		supervised[i] = point{ftLabel(r), ftSupervisedSpec(r.Method, r.Target, r.MTBF, r.Interval, r.Baseline)}
	}
	return supervised
}

// FTSweep reproduces the resilience figure: supervised time-to-solution
// versus machine MTBF, for each privatization method and checkpoint
// target, with the checkpoint interval set to Daly's optimum for each
// point. Every run is a pure function of its configuration — crash
// plans are compiled from per-point seeds before the run — so rows,
// tables, and any selected trace are byte-identical at any sweep
// parallelism. A nil mtbfs selects FTSweepMTBFs().
func FTSweep(o Opts, mtbfs []sim.Time) ([]FTRow, *trace.Table, error) {
	rows, measure := ftMeasurePoints(mtbfs)
	measured, err := run(o, measure)
	if err != nil {
		return nil, nil, fmt.Errorf("ftsweep: %w", err)
	}
	results, err := run(o, ftSupervisedPoints(rows, measured))
	if err != nil {
		return nil, nil, fmt.Errorf("ftsweep: %w", err)
	}
	for i, res := range results {
		r := &rows[i]
		r.Total = sim.Time(res.TotalNs)
		r.Overhead = float64(r.Total) / float64(r.Baseline)
		r.Checkpoints = res.Checkpoints
		r.Recoveries = res.Recoveries
		r.MeanRecovery = sim.Time(res.MeanRecoveryNs)
		r.RestoredBytes = res.RestoredBytes
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
