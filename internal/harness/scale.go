package harness

import (
	"fmt"
	"runtime"

	"provirt/internal/ampi"
	"provirt/internal/elf"
	"provirt/internal/sim"
	"provirt/internal/trace"
)

// The scale experiment builds one world with a million virtual ranks on
// a laptop-class machine shape, runs a full allreduce over the binomial
// tree, then a migration storm over an eighth of the ranks, and reports
// the modeled physics.
//
// It runs on the flat world (ampi.FlatWorld) — array-of-structs rank
// records, tree-modeled collectives, no rank threads — which has no
// Spec and so is the one world the harness builds outside
// scenario.Spec.Execute, until ROADMAP decides the flat world's engine.
// The method is PIEglobals with shared code pages and read-only-data
// COW, the configuration whose per-rank footprint matters at this size.

// DefaultScaleVPs is the rank count the scale experiment runs at when
// none is given.
const DefaultScaleVPs = 1_000_000

// scaleStride is the migration-storm stride: every stride-th rank
// migrates halfway across the machine.
const scaleStride = 8

// ScaleRow is one phase of the scale experiment.
type ScaleRow struct {
	Phase string
	VPs   int
	// SetupDone and Time are modeled virtual times (extrapolated setup;
	// phase completion).
	SetupDone sim.Time
	Time      sim.Time
	// Events is the cumulative count of modelled arrivals after the
	// phase: one per tree edge per wave, one per migration. Of the tree
	// edges, the engine dispatches only those that cross a lookahead
	// domain (ampi.FlatWorld.Dispatches).
	Events uint64
	// Migrations and MigratedBytes are the storm's modeled volume (zero
	// for the allreduce phase).
	Migrations    int
	MigratedBytes uint64
	// PerRankBytes is the modeled per-rank resident footprint;
	// SharedBytesPerRank the per-rank bytes on shared mappings.
	PerRankBytes       uint64
	SharedBytesPerRank uint64
}

// scaleImage is the program image the scale experiment samples
// privatization on: a few MB of code, a mostly-read-only data segment.
func scaleImage() *elf.Image {
	return elf.NewBuilder("scaleapp").
		TaggedGlobal("iter", 0).
		TaggedGlobal("local_norm", 0).
		Const("mesh_dim", 64).
		Func("main", 4096).
		Func("compute", 16<<10).
		CodeBulk(4 << 20).
		DataBulk(256 << 10).
		RODataBulk(192 << 10). // stencil tables, basis constants
		MustBuild()
}

// ScaleExperiment runs the flat-world allreduce + migration storm at
// the given rank count (<= 0 selects DefaultScaleVPs) and returns one
// row per phase. The world is a single simulation, so Opts.Parallelism
// does not apply; its one point is labelled "vps=N".
//
// A collection before the build and after each phase frees the last
// phase's garbage before the next one allocates: without them the
// flat_scale benchmark's peak RSS roughly doubles (47 to 92 MB).
func ScaleExperiment(o Opts, vps int) ([]ScaleRow, *trace.Table, error) {
	if vps <= 0 {
		vps = DefaultScaleVPs
	}
	runtime.GC()
	w, err := ampi.NewFlatWorld(ampi.FlatConfig{
		Machine:    machineShape(1, 1, 8),
		VPs:        vps,
		Image:      scaleImage(),
		Tracer:     o.Trace.tracer(fmt.Sprintf("vps=%d", vps)),
		SimWorkers: o.SimWorkers,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("scale: %w", err)
	}
	runtime.GC()

	arDone, err := w.Allreduce(8)
	if err != nil {
		return nil, nil, fmt.Errorf("scale: %w", err)
	}
	runtime.GC()
	arEvents := w.EventsFired()
	rows := make([]ScaleRow, 0, 2)
	rows = append(rows, ScaleRow{
		Phase:              "allreduce",
		VPs:                vps,
		SetupDone:          w.SetupDone,
		Time:               arDone,
		Events:             arEvents,
		PerRankBytes:       w.PerRankBytes,
		SharedBytesPerRank: w.SharedBytesPerRank,
	})

	stormDone, err := w.MigrationStorm(scaleStride)
	if err != nil {
		return nil, nil, fmt.Errorf("scale: %w", err)
	}
	runtime.GC()
	rows = append(rows, ScaleRow{
		Phase:              "migration-storm",
		VPs:                vps,
		SetupDone:          w.SetupDone,
		Time:               stormDone,
		Events:             w.EventsFired(),
		Migrations:         w.Migrations,
		MigratedBytes:      w.MigratedBytes,
		PerRankBytes:       w.PerRankBytes,
		SharedBytesPerRank: w.SharedBytesPerRank,
	})

	t := trace.NewTable(
		fmt.Sprintf("Scale: flat world with %d virtual ranks (PIEglobals, shared code + RO COW)", vps),
		"Phase", "Setup", "Done", "Events", "Migrations", "Moved", "Rank resident", "Rank shared")
	for _, r := range rows {
		t.AddRow(
			r.Phase,
			trace.FormatDuration(r.SetupDone),
			trace.FormatDuration(r.Time),
			fmt.Sprint(r.Events),
			fmt.Sprint(r.Migrations),
			trace.FormatBytes(int64(r.MigratedBytes)),
			trace.FormatBytes(int64(r.PerRankBytes)),
			trace.FormatBytes(int64(r.SharedBytesPerRank)),
		)
	}
	return rows, t, nil
}
