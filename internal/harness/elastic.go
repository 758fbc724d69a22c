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

// The sweep's job: the "checkpointed" workload of the FT sweep, on a
// machine with headroom to shrink twice and still hold every rank.
const (
	elNodes    = 4
	elVPs      = 8
	elInterval = 32 * time.Millisecond // checkpoint cadence: every 4 iterations
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

// elasticSpec is a point's supervised run: fixed-cadence checkpointing
// (churn, not MTBF, drives the snapshot need here) under the regime's
// churn spec. The compiled plan depends only on the regime, so every
// method/target combo weathers the identical schedule — an
// equal-footing comparison, and trivially identical at any sweep
// parallelism.
func elasticSpec(kind core.Kind, target ampi.CheckpointTarget, regime ElasticRegime) scenario.Spec {
	sp := checkpointedJob(elNodes, elVPs, kind)
	sp.Checkpoint = &ampi.CheckpointPolicy{Target: target, Interval: elInterval}
	sp.Churn = &regime.Churn
	return sp
}

// elasticPoints is the sweep's rows, one per (regime, method, target),
// and two runs per row: the churn-free, checkpoint-free baseline, then
// the elastic run. A nil regimes selects ElasticRegimes().
func elasticPoints(regimes []ElasticRegime) ([]ElasticRow, []point) {
	if regimes == nil {
		regimes = ElasticRegimes()
	}
	kinds := FTSweepMethods()
	targets := []ampi.CheckpointTarget{ampi.TargetFS, ampi.TargetBuddy}
	rows := make([]ElasticRow, len(regimes)*len(kinds)*len(targets))
	specs := make([]point, 0, 2*len(rows))
	for i := range rows {
		regime := regimes[i/(len(kinds)*len(targets))]
		kind := kinds[i/len(targets)%len(kinds)]
		target := targets[i%len(targets)]
		rows[i] = ElasticRow{Method: kind, Target: target, Regime: regime.Name}
		label := fmt.Sprintf("method=%s,target=%s,churn=%s", kind, target, regime.Name)
		specs = append(specs,
			point{label + ",run=baseline", checkpointedJob(elNodes, elVPs, kind)},
			point{label, elasticSpec(kind, target, regime)})
	}
	return rows, specs
}

// ElasticSweep reproduces the elasticity experiment: supervised
// time-to-solution and node-hours under cluster churn, for each
// migratable privatization method, checkpoint target, and churn
// regime. Churn plans are compiled from per-point seeds before any
// world runs, so rows, tables, and any selected trace are
// byte-identical at any sweep parallelism. A nil regimes selects
// ElasticRegimes().
func ElasticSweep(o Opts, regimes []ElasticRegime) ([]ElasticRow, *trace.Table, error) {
	rows, specs := elasticPoints(regimes)
	points, err := run(o, specs)
	if err != nil {
		return nil, nil, fmt.Errorf("elastic: %w", err)
	}
	for i := range rows {
		r, base, res := &rows[i], points[2*i], points[2*i+1]
		r.Baseline = sim.Time(base.TimeNs())
		r.Total = sim.Time(res.TotalNs)
		r.Overhead = float64(r.Total) / float64(r.Baseline)
		r.NodeSeconds = sim.Time(res.NodeTimeNs)
		r.Epochs, r.Drained, r.Crashed = res.Epochs, res.Drained, res.Crashed
		r.ReworkNoticed = sim.Time(res.ReworkNoticedNs)
		r.ReworkForced = sim.Time(res.ReworkForcedNs)
		r.Checkpoints = res.Checkpoints
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
