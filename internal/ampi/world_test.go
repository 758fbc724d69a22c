package ampi_test

import (
	"sort"
	"strings"
	"testing"

	"provirt/internal/ampi"
	"provirt/internal/core"
	"provirt/internal/elf"
	"provirt/internal/machine"
	"provirt/internal/workloads/synth"
)

// smallConfig is a 1-node, 1-process, 1-PE machine with v virtual
// ranks.
func smallConfig(v int, kind core.Kind) ampi.Config {
	return ampi.Config{
		Machine:   machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 1},
		VPs:       v,
		Privatize: kind,
	}
}

func runHello(t *testing.T, cfg ampi.Config) []synth.HelloResult {
	t.Helper()
	var results []synth.HelloResult
	prog := synth.Hello(func(hr synth.HelloResult) { results = append(results, hr) })
	w, err := ampi.NewWorld(cfg, prog)
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	if err := w.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	sort.Slice(results, func(i, j int) bool { return results[i].VP < results[j].VP })
	return results
}

// TestFig3UnsafeOutput reproduces Fig. 3: without privatization, two
// virtual ranks sharing a process both print the last writer's rank.
func TestFig3UnsafeOutput(t *testing.T) {
	results := runHello(t, smallConfig(2, core.KindNone))
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	// Both ranks print the same (clobbered) value.
	if results[0].Printed != results[1].Printed {
		t.Fatalf("unprivatized ranks printed different values %d and %d; expected the shared global to be clobbered",
			results[0].Printed, results[1].Printed)
	}
	// And that value is the rank that wrote last (rank 1 runs second).
	if results[0].Printed != 1 {
		t.Errorf("shared global holds %d, want last writer 1", results[0].Printed)
	}
}

// TestHelloPrivatized verifies every method that privatizes tagged
// globals makes each rank print its own number.
func TestHelloPrivatized(t *testing.T) {
	kinds := []core.Kind{
		core.KindManual, core.KindTLSglobals, core.KindPIPglobals,
		core.KindFSglobals, core.KindPIEglobals,
	}
	for _, kind := range kinds {
		t.Run(kind.String(), func(t *testing.T) {
			results := runHello(t, smallConfig(4, kind))
			if len(results) != 4 {
				t.Fatalf("got %d results, want 4", len(results))
			}
			for _, hr := range results {
				if hr.Printed != uint64(hr.VP) {
					t.Errorf("rank %d printed %d, want %d", hr.VP, hr.Printed, hr.VP)
				}
			}
		})
	}
}

// TestHelloMultiProcess runs privatized hello across processes and
// nodes.
func TestHelloMultiProcess(t *testing.T) {
	cfg := ampi.Config{
		Machine:   machine.Config{Nodes: 2, ProcsPerNode: 2, PEsPerProc: 2},
		VPs:       16,
		Privatize: core.KindPIEglobals,
	}
	results := runHello(t, cfg)
	if len(results) != 16 {
		t.Fatalf("got %d results, want 16", len(results))
	}
	for _, hr := range results {
		if hr.Printed != uint64(hr.VP) {
			t.Errorf("rank %d printed %d", hr.VP, hr.Printed)
		}
	}
}

// TestSwapglobalsStaticGap verifies Swapglobals privatizes globals but
// leaves statics shared (its Table 1 gap). Requires the old/patched
// linker and non-SMP mode.
func TestSwapglobalsStaticGap(t *testing.T) {
	cfg := smallConfig(2, core.KindSwapglobals)
	tc, osEnv := core.Bridges2Env()
	osEnv.OldOrPatchedLinker = true
	cfg.Toolchain, cfg.OS = tc, osEnv

	var results []synth.HelloResult
	prog := synth.Hello(func(hr synth.HelloResult) { results = append(results, hr) })
	w, err := ampi.NewWorld(cfg, prog)
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	if err := w.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, hr := range results {
		if hr.Printed != uint64(hr.VP) {
			t.Errorf("rank %d printed %d; swapglobals should privatize the global", hr.VP, hr.Printed)
		}
	}
	// The static counter was shared: both increments landed in one cell.
	shared := w.Ranks[0].Ctx().Var("calls")
	if got := shared.Load(); got != 2 {
		t.Errorf("shared static `calls` = %d, want 2 (both ranks incremented one cell)", got)
	}
	if w.Ranks[0].Ctx().Var("calls").Privatized() {
		t.Error("static variable reports privatized under swapglobals")
	}
}

// TestSwapglobalsRefusesModernLinker reproduces the paper's §4
// experience: Swapglobals could not run on Bridges-2 (modern ld).
func TestSwapglobalsRefusesModernLinker(t *testing.T) {
	cfg := smallConfig(2, core.KindSwapglobals)
	_, err := ampi.NewWorld(cfg, synth.Hello(func(synth.HelloResult) {}))
	if err == nil {
		t.Fatal("expected swapglobals to refuse a modern unpatched linker")
	}
}

// A method kind past the table is an error from NewWorld, for callers
// that did not come through a Spec's Validate; it used to be a panic.
func TestUnknownMethodKindIsAnError(t *testing.T) {
	_, err := ampi.NewWorld(smallConfig(2, core.Kind(99)), synth.Hello(func(synth.HelloResult) {}))
	if err == nil || !strings.Contains(err.Error(), "unknown privatization method") {
		t.Fatalf("NewWorld with kind 99: %v", err)
	}
}

// TestPIPglobalsNamespaceLimit verifies stock glibc caps PIPglobals at
// 12 ranks per process and the patched glibc lifts the cap.
func TestPIPglobalsNamespaceLimit(t *testing.T) {
	cfg := smallConfig(13, core.KindPIPglobals)
	_, err := ampi.NewWorld(cfg, synth.Hello(func(synth.HelloResult) {}))
	if err == nil {
		t.Fatal("expected 13 ranks/process to exhaust glibc namespaces")
	}

	tc, osEnv := core.Bridges2Env()
	osEnv.PatchedGlibc = true
	cfg.Toolchain, cfg.OS = tc, osEnv
	var results []synth.HelloResult
	prog := synth.Hello(func(hr synth.HelloResult) { results = append(results, hr) })
	w, err := ampi.NewWorld(cfg, prog)
	if err != nil {
		t.Fatalf("NewWorld with patched glibc: %v", err)
	}
	if err := w.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(results) != 13 {
		t.Fatalf("got %d results, want 13", len(results))
	}
}

// TestTLSglobalsUntaggedGap verifies an untagged mutable global stays
// shared under TLSglobals ("Mediocre" automation).
func TestTLSglobalsUntaggedGap(t *testing.T) {
	img := elf.NewBuilder("forgetful").
		TaggedGlobal("tagged", 0).
		Global("forgotten", 0). // the programmer missed this one
		Func("main", 1024).
		MustBuild()
	var vals []uint64
	prog := &ampi.Program{
		Image: img,
		Main: func(r *ampi.Rank) {
			r.Ctx().Store("forgotten", uint64(r.Rank()+100))
			r.Barrier()
			vals = append(vals, r.Ctx().Load("forgotten"))
		},
	}
	w, err := ampi.NewWorld(smallConfig(2, core.KindTLSglobals), prog)
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	if err := w.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if vals[0] != vals[1] {
		t.Errorf("untagged global values diverged %v; want shared (clobbered)", vals)
	}
}
