package adcirc_test

import (
	"runtime"
	"testing"

	"provirt/internal/ampi"
	"provirt/internal/core"
	"provirt/internal/lb"
	"provirt/internal/machine"
	"provirt/internal/workloads/adcirc"
)

func smallCfg() adcirc.Config {
	cfg := adcirc.DefaultConfig()
	cfg.Width, cfg.Height = 48, 48
	cfg.Steps = 12
	cfg.LBPeriod = 4
	cfg.StormRadius = 6
	cfg.StormGrowth = 1.5
	return cfg
}

func runSurge(t *testing.T, cfg adcirc.Config, vps, pes int, balancer lb.Strategy) (uint64, *ampi.World) {
	t.Helper()
	var volume uint64
	prog := adcirc.New(cfg, func(res adcirc.Result) { volume += res.WetCellSteps })
	w, err := ampi.NewWorld(ampi.Config{
		Machine:   machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: pes},
		VPs:       vps,
		Privatize: core.KindPIEglobals,
		Balancer:  balancer,
	}, prog)
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	if err := w.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return volume, w
}

// TestVolumeInvariant: total wet-cell work is a physical invariant,
// independent of decomposition, virtualization ratio, or balancing. On
// the virtualized shapes the balancer migrates ranks mid-run, so the
// answer is also checked to survive migration.
func TestVolumeInvariant(t *testing.T) {
	cfg := smallCfg()
	want := adcirc.TotalWetCellSteps(cfg)
	if want == 0 {
		t.Fatal("oracle volume is zero; storm misses the domain")
	}
	for _, shape := range []struct{ vps, pes int }{{1, 1}, {4, 2}, {8, 2}, {16, 4}} {
		got, w := runSurge(t, cfg, shape.vps, shape.pes, lb.GreedyRefineLB{})
		if got != want {
			t.Errorf("vps=%d pes=%d volume %d, oracle %d", shape.vps, shape.pes, got, want)
		}
		if shape.vps > shape.pes && w.Migrations == 0 {
			t.Errorf("vps=%d pes=%d: no rank migrated, so the invariant was not checked across a migration", shape.vps, shape.pes)
		}
	}
}

// TestStormCreatesImbalance: the hotspot concentrates on few ranks at
// any instant.
func TestStormCreatesImbalance(t *testing.T) {
	cfg := smallCfg()
	var maxLoad, minLoad = 0, 1 << 30
	prog := adcirc.New(cfg, func(res adcirc.Result) {
		if res.MaxStepLoad > maxLoad {
			maxLoad = res.MaxStepLoad
		}
		if res.MaxStepLoad < minLoad {
			minLoad = res.MaxStepLoad
		}
	})
	w, err := ampi.NewWorld(ampi.Config{
		Machine:   machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 2},
		VPs:       8,
		Privatize: core.KindPIEglobals,
	}, prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if maxLoad <= 2*minLoad {
		t.Errorf("storm load spread max=%d min=%d; expected concentration", maxLoad, minLoad)
	}
}

// TestLoadBalancingHelps: with the storm-induced imbalance,
// overdecomposition plus GreedyRefineLB beats the unvirtualized,
// unbalanced baseline.
func TestLoadBalancingHelps(t *testing.T) {
	// Paper-scale per-step work: migration payloads (the 14 MB code
	// segment) must be amortizable, as in the real ADCIRC runs.
	cfg := adcirc.DefaultConfig()
	cfg.Steps = 24
	cfg.LBPeriod = 8

	baseCfg := cfg
	baseCfg.LBPeriod = 0
	_, base := runSurge(t, baseCfg, 4, 4, nil) // 1 VP per PE, no LB
	_, tuned := runSurge(t, cfg, 32, 4, lb.GreedyRefineLB{})
	bt, tt := base.ExecutionTime(), tuned.ExecutionTime()
	if tt >= bt {
		t.Errorf("LB run %v not faster than baseline %v (migrations=%d)", tt, bt, tuned.Migrations)
	}
	if tuned.Migrations == 0 {
		t.Error("GreedyRefineLB never migrated despite storm imbalance")
	}
}

// TestImageShape: the surrogate matches the paper's description of
// ADCIRC (hundreds of globals, ~14 MB code).
func TestImageShape(t *testing.T) {
	img := adcirc.Image()
	if img.Language != "fortran" {
		t.Errorf("language %q", img.Language)
	}
	n := 0
	for _, v := range img.Vars {
		if v.Mutable() {
			n++
		}
	}
	if n < 300 {
		t.Errorf("%d mutable globals, want hundreds", n)
	}
	if img.CodeSize < 14<<20 {
		t.Errorf("code segment %d bytes, want >= 14 MiB", img.CodeSize)
	}
}

// TestScalingPointHostCost guards the line between modelled and host
// bytes on Table 2's 8-core, ratio-8 point: the world models 64 ranks
// that each copy a 2 MiB data segment and 88 migrations that move
// 1.5 GB, and the numbers below are that model's output, pinned from
// the commit that still copied every one of those bytes on the host
// (≈ 300 MB allocated). The host may allocate 1.25 MB: the ranks' TLS
// blocks and heaps, with no per-variable cache for cells that live in
// the TLS block, and no copy of a migrated rank's heap or TLS block.
func TestScalingPointHostCost(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, w := runSurge(t, adcirc.DefaultConfig(), 64, 8, lb.GreedyRefineLB{})
	runtime.ReadMemStats(&after)

	if got := int64(w.ExecutionTime()); got != 443472291 {
		t.Errorf("ExecutionTime = %d ns, pinned 443472291", got)
	}
	if w.Migrations != 88 || w.MigratedBytes != 1586196480 || w.MigratedDeltaBytes != 973434880 {
		t.Errorf("migrations %d moved %d bytes (%d delta), pinned 88 / 1586196480 / 973434880",
			w.Migrations, w.MigratedBytes, w.MigratedDeltaBytes)
	}
	const limit = 5 << 18 // 1.25 MiB
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > limit {
		t.Errorf("host allocated %.2f MB to build and run the world, limit %.1f MB", float64(alloc)/(1<<20), float64(limit)/(1<<20))
	}
}
