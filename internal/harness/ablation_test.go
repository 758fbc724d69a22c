package harness_test

import (
	"fmt"
	"testing"

	"provirt/internal/ampi"
	"provirt/internal/core"
	"provirt/internal/lb"
	"provirt/internal/machine"
	"provirt/internal/workloads/adcirc"
	"provirt/internal/workloads/jacobi"
)

// The four ablations EXPERIMENTS.md quotes. Each pins the virtual-time
// values the document states (formatted as it states them) and the
// inequality that is the ablation's finding.

// runWorld builds and runs one world.
func runWorld(t *testing.T, cfg ampi.Config, prog *ampi.Program) *ampi.World {
	t.Helper()
	w, err := ampi.NewWorld(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	return w
}

// migrateOnce moves one ADCIRC-image rank across two nodes and returns
// the migration record and the rank's resident bytes after it.
func migrateOnce(t *testing.T, cost *machine.CostModel, method core.Kind) (ampi.MigrationRecord, uint64) {
	t.Helper()
	w := runWorld(t, ampi.Config{
		Machine:   machine.Config{Nodes: 2, ProcsPerNode: 1, PEsPerProc: 1, Cost: cost},
		VPs:       1,
		Privatize: method,
		Balancer:  lb.RotateLB{},
	}, &ampi.Program{
		Image: adcirc.Image(),
		Main:  func(r *ampi.Rank) { r.Migrate() },
	})
	return w.LastMigrations()[0], w.Ranks[0].Ctx().Heap.ResidentBytes()
}

func mib(b uint64) float64 { return float64(b) / (1 << 20) }

// TestAblationMigrationBandwidth: Fig. 8's sensitivity to the
// interconnect. PIE migration is payload-bandwidth-bound, so doubling
// inter-node bandwidth shrinks it materially.
func TestAblationMigrationBandwidth(t *testing.T) {
	migrate := func(bw float64) int64 {
		cost := machine.Default()
		cost.InterNodeBandwidth = bw
		rec, _ := migrateOnce(t, cost, core.KindPIEglobals)
		return rec.Duration.Microseconds()
	}
	base, fast := migrate(12e9), migrate(24e9)
	if got, want := fmt.Sprintf("%d → %d µs", base, fast), "4508 → 3765 µs"; got != want {
		t.Errorf("12 → 24 GB/s migration = %s, want %s", got, want)
	}
	if fast >= base {
		t.Errorf("doubling bandwidth did not shrink PIE migration: %d vs %d µs", fast, base)
	}
}

// TestAblationLBTrigger: always-balancing against the adaptive
// imbalance trigger on the ADCIRC run. Skipping low-imbalance steps
// trades a little execution time for substantially fewer migrated
// bytes.
func TestAblationLBTrigger(t *testing.T) {
	run := func(trigger lb.Trigger) (ms int64, moved uint64) {
		cfg := adcirc.DefaultConfig()
		cfg.Width, cfg.Height, cfg.Steps, cfg.LBPeriod = 192, 256, 24, 4
		w := runWorld(t, ampi.Config{
			Machine:   machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 4},
			VPs:       32,
			Privatize: core.KindPIEglobals,
			Balancer:  lb.GreedyRefineLB{},
			Trigger:   trigger,
		}, adcirc.New(cfg, nil))
		return w.ExecutionTime().Milliseconds(), w.MigratedBytes
	}
	alwaysT, alwaysB := run(nil)
	trigT, trigB := run(lb.ImbalanceTrigger{Threshold: 1.3})
	got := fmt.Sprintf("%d ms / %.1f MiB vs %d ms / %.1f MiB", alwaysT, mib(alwaysB), trigT, mib(trigB))
	if want := "252 ms / 649.7 MiB vs 272 ms / 547.1 MiB"; got != want {
		t.Errorf("always vs triggered = %s, want %s", got, want)
	}
	if trigB >= alwaysB || trigT < alwaysT || trigT*10 > alwaysT*11 {
		t.Errorf("trigger should move fewer bytes for at most 10%% more time: %s", got)
	}
}

// TestAblationSharedCode quantifies the paper's §6 future-work
// optimization: mapping code segments from a single descriptor removes
// the code bytes from both the per-rank resident footprint and the
// migration payload.
func TestAblationSharedCode(t *testing.T) {
	base, baseRes := migrateOnce(t, nil, core.KindPIEglobals)
	opt, optRes := migrateOnce(t, nil, core.KindPIEglobalsSharedCode)
	got := fmt.Sprintf("%.2f → %.3f MiB payload, %.2f → %.3f MiB resident, %d → %d µs",
		mib(base.Bytes), mib(opt.Bytes), mib(baseRes), mib(optRes),
		base.Duration.Microseconds(), opt.Duration.Microseconds())
	if want := "17.00 → 3.002 MiB payload, 17.00 → 3.000 MiB resident, 4508 → 838 µs"; got != want {
		t.Errorf("copied → shared code pages = %s, want %s", got, want)
	}
	if opt.Bytes+adcirc.CodeSegmentBytes > base.Bytes+1<<20 || opt.Bytes >= base.Bytes {
		t.Errorf("shared code pages did not shrink the payload: %d vs %d", opt.Bytes, base.Bytes)
	}
}

// TestAblationJacobiNoHoisting: Fig. 7's dependence on the
// compiler-hoisting assumption. With hoisting disabled, TLS-indirect
// accesses cost extra per touch and the Jacobi gap opens.
func TestAblationJacobiNoHoisting(t *testing.T) {
	run := func(hoist bool) int64 {
		cost := machine.Default()
		cost.CompilerHoistsIndirection = hoist
		cfg := jacobi.Config{NX: 16, NY: 16, NZ: 16, Iters: 5}
		w := runWorld(t, ampi.Config{
			Machine:   machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 1, Cost: cost},
			VPs:       1,
			Privatize: core.KindTLSglobals,
		}, jacobi.New(cfg, nil))
		return w.ExecutionTime().Microseconds()
	}
	hoisted, unhoisted := run(true), run(false)
	if got, want := fmt.Sprintf("%d → %d µs", hoisted, unhoisted), "286 → 409 µs"; got != want {
		t.Errorf("hoisted → unhoisted = %s, want %s", got, want)
	}
	if unhoisted <= hoisted {
		t.Error("disabling hoisting should slow privatized access")
	}
}
