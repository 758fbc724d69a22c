package harness

import (
	"fmt"
	"time"

	"provirt/internal/ampi"
	"provirt/internal/core"
	"provirt/internal/ft"
	"provirt/internal/machine"
	"provirt/internal/scenario"
	"provirt/internal/sim"
	"provirt/internal/trace"
	"provirt/internal/workloads/synth"
)

// ElasticRegime names one churn pattern the elastic experiment runs a
// job under. The zero Churn spec is the calm (churn-free) control.
type ElasticRegime struct {
	Name  string
	Churn ft.ChurnSpec
}

// ElasticRow is one point of the elasticity sweep: a checkpointed job
// run under a seeded churn regime, reporting the two axes the paper's
// malleability story trades between — time-to-solution and node-hours
// — plus the rework split that makes the drain dividend visible.
type ElasticRow struct {
	Method core.Kind
	Target ampi.CheckpointTarget
	Regime string
	// Baseline is the job's churn-free, checkpoint-free time; Total is
	// the elastic time-to-solution (all attempts, drains and restarts
	// included); Overhead is Total/Baseline.
	Baseline sim.Time
	Total    sim.Time
	Overhead float64
	// NodeSeconds integrates cluster membership over the run — the
	// cost axis (shrinking under eviction spends fewer node-hours than
	// holding the full machine; surging spends more).
	NodeSeconds sim.Time
	// Epochs counts membership transitions; Drained and Crashed split
	// them by whether the eviction notice reached a consistency point.
	Epochs  int
	Drained int
	Crashed int
	// ReworkNoticed is rework across drained changes (zero by
	// construction); ReworkForced is rework across notice-too-short
	// evictions — the cost of running blind.
	ReworkNoticed sim.Time
	ReworkForced  sim.Time
	Checkpoints   int
}

// The sweep's job: the checkpointable iterative kernel from the FT
// sweep, on a machine with headroom to shrink twice and still hold
// every rank.
const (
	elIters    = 24
	elCompute  = 8 * time.Millisecond
	elNodes    = 4
	elVPs      = 8
	elDir      = "/scratch/elastic"
	elInterval = 4 * elCompute // checkpoint cadence: every 4 iterations
	// elNotice covers the job's setup phase plus several iteration
	// boundaries, so a noticed eviction always reaches a consistency
	// point and drains — even one announced before the first iteration
	// runs; elHorizon brackets the job.
	elNotice  = 120 * time.Millisecond
	elHorizon = 200 * time.Millisecond
)

// ElasticRegimes is the default churn-regime list: a churn-free
// control, spot-market evictions at two rates, the same busy eviction
// schedule with no notice (every reclaim degrades into a crash), and
// an arrival surge. spot-busy and spot-blind share a seed, so their
// eviction instants are identical and the rows differ only in the
// notice — the drain-versus-crash comparison the paper's malleability
// argument rests on.
func ElasticRegimes() []ElasticRegime {
	return []ElasticRegime{
		{Name: "calm"},
		{Name: "spot-rare", Churn: ft.ChurnSpec{
			Seed: 11, EvictionEvery: 240 * time.Millisecond, Notice: elNotice,
			Horizon: elHorizon, MaxEvents: 1,
		}},
		{Name: "spot-busy", Churn: ft.ChurnSpec{
			Seed: 20, EvictionEvery: 80 * time.Millisecond, Notice: elNotice,
			Horizon: elHorizon, MaxEvents: 2,
		}},
		{Name: "spot-blind", Churn: ft.ChurnSpec{
			Seed: 20, EvictionEvery: 80 * time.Millisecond, Notice: 0,
			Horizon: elHorizon, MaxEvents: 2,
		}},
		{Name: "surge", Churn: ft.ChurnSpec{
			Seed: 13, ArrivalEvery: 90 * time.Millisecond,
			Horizon: elHorizon, MaxEvents: 2,
		}},
	}
}

// CustomChurnRegime builds a single spot-eviction regime from launcher
// flags, sized to the elastic experiment's job.
func CustomChurnRegime(seed uint64, rate, notice sim.Time) ElasticRegime {
	return ElasticRegime{Name: "custom", Churn: ft.ChurnSpec{
		Seed: seed, EvictionEvery: rate, Notice: notice,
		Horizon: elHorizon, MaxEvents: 2,
	}}
}

func elConfig(kind core.Kind, tracer trace.Tracer) ampi.Config {
	sp := scenario.Spec{
		Machine: machineShape(elNodes, 1, 2),
		VPs:     elVPs,
		Method:  kind,
		Tracer:  tracer,
	}
	cfg, err := sp.Config()
	if err != nil {
		panic(fmt.Sprintf("elastic: %v", err))
	}
	return cfg
}

// elasticPoint measures one sweep point: the churn-free checkpoint-free
// baseline, then the elastic supervised run under the regime's
// compiled churn plan.
func elasticPoint(o Opts, kind core.Kind, target ampi.CheckpointTarget, regime ElasticRegime) (ElasticRow, error) {
	row := ElasticRow{Method: kind, Target: target, Regime: regime.Name}

	finals := make([]uint64, elVPs)
	w, err := ftRun(elConfig(kind, nil), synth.Checkpointed(elIters, elCompute, finals))
	if err != nil {
		return row, err
	}
	row.Baseline = w.Time()

	// The elastic run: fixed-cadence checkpointing (churn, not MTBF,
	// drives the snapshot need here) under the regime's compiled plan.
	// The plan depends only on the regime, so every method/target combo
	// weathers the identical churn schedule — an equal-footing
	// comparison, and trivially identical at any sweep parallelism.
	plan := regime.Churn.Compile(elNodes)
	cfg := elConfig(kind, o.tracerFor(func(ts *TraceSel) bool {
		return ts.Method == kind && ts.Target == target && ts.Churn == regime.Name
	}))
	cfg.Checkpoint = &ampi.CheckpointPolicy{Target: target, Dir: elDir, Interval: sim.Time(elInterval)}
	supFinals := make([]uint64, elVPs)
	rep, err := ft.RunElastic(ft.ElasticJob{
		Config:      cfg,
		Program:     func() *ampi.Program { return synth.Checkpointed(elIters, elCompute, supFinals) },
		Churn:       plan,
		Recovery:    ft.Shrink,
		MaxRestarts: len(plan.Events) + DefaultElasticHeadroom,
	})
	if err != nil {
		return row, fmt.Errorf("regime %s: %w", regime.Name, err)
	}
	for rank, got := range supFinals {
		if want := synth.CheckpointedAcc(elIters, rank); got != want {
			return row, fmt.Errorf("regime %s: rank %d finished with acc %d, want %d: a membership change lost or double-counted work",
				regime.Name, rank, got, want)
		}
	}
	row.Total = rep.TotalTime
	row.Overhead = float64(rep.TotalTime) / float64(row.Baseline)
	row.NodeSeconds = rep.NodeSeconds
	row.Epochs = rep.Epochs()
	for _, rz := range rep.Resizes {
		if rz.Drained {
			row.Drained++
		}
		if rz.Crashed {
			row.Crashed++
		}
	}
	row.ReworkNoticed = rep.ReworkNoticed()
	row.ReworkForced = rep.ReworkForced()
	row.Checkpoints = rep.Checkpoints
	return row, nil
}

// DefaultElasticHeadroom pads MaxRestarts past the compiled plan's
// event count, covering the restart each membership change costs plus
// slack for crash-path recoveries.
const DefaultElasticHeadroom = 4

// ElasticSweep reproduces the elasticity experiment: supervised
// time-to-solution and node-hours under cluster churn, for each
// migratable privatization method, checkpoint target, and churn
// regime. Churn plans are compiled from per-point seeds before any
// world runs, so rows, tables, and any selected trace are
// byte-identical at any sweep parallelism. A nil regimes selects
// ElasticRegimes().
func ElasticSweep(o Opts, regimes []ElasticRegime) ([]ElasticRow, *trace.Table, error) {
	if regimes == nil {
		regimes = ElasticRegimes()
	}
	kinds := FTSweepMethods()
	targets := []ampi.CheckpointTarget{ampi.TargetFS, ampi.TargetBuddy}
	rows := make([]ElasticRow, len(regimes)*len(kinds)*len(targets))
	err := o.runner().Run(len(rows), func(i int) error {
		regime := regimes[i/(len(kinds)*len(targets))]
		kind := kinds[i/len(targets)%len(kinds)]
		target := targets[i%len(targets)]
		row, err := elasticPoint(o, kind, target, regime)
		if err != nil {
			return fmt.Errorf("elastic %s/%s %s: %w", kind, target, regime.Name, err)
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	t := trace.NewTable("Elastic worlds: time-to-solution and node-hours under cluster churn",
		"Method", "Target", "Regime", "Baseline", "Total", "Overhead", "Node-hours",
		"Epochs", "Drains", "Crashes", "Rework (noticed)", "Rework (forced)")
	for _, r := range rows {
		t.AddRow(core.CapabilitiesOf(r.Method).DisplayName, r.Target.String(), r.Regime,
			trace.FormatDuration(r.Baseline), trace.FormatDuration(r.Total), pct(r.Overhead),
			machine.FormatNodeHours(r.NodeSeconds),
			fmt.Sprint(r.Epochs), fmt.Sprint(r.Drained), fmt.Sprint(r.Crashed),
			trace.FormatDuration(r.ReworkNoticed), trace.FormatDuration(r.ReworkForced))
	}
	return rows, t, nil
}
