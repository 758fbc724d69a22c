package harness_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"provirt/internal/ampi"
	"provirt/internal/core"
	"provirt/internal/elf"
	"provirt/internal/harness"
	"provirt/internal/machine"
	"provirt/internal/scenario"
	"provirt/internal/workloads/adcirc"
	"provirt/internal/workloads/synth"
)

func TestTables1And3MatchPaper(t *testing.T) {
	t3 := harness.Table3().String()
	for _, want := range []string{
		"Manual refactoring", "Photran", "Swapglobals", "TLSglobals",
		"-fmpc-privatize", "PIPglobals", "FSglobals", "PIEglobals",
		"No static vars", "Limited w/o patched glibc",
		"Implemented w/ GNU libc extension", "Shared file system needed",
		"Not implemented, but possible",
	} {
		if !strings.Contains(t3, want) {
			t.Errorf("Table 3 missing %q:\n%s", want, t3)
		}
	}
	t1 := harness.Table1().String()
	if strings.Contains(t1, "PIEglobals") || strings.Contains(t1, "FSglobals") {
		t.Error("Table 1 must not contain the novel methods")
	}
}

// TestFig5Shape: baseline fastest; TLS ~ baseline; the worst
// non-FSglobals new method stays within ~10-15% of baseline; FSglobals
// is the slowest.
func TestFig5Shape(t *testing.T) {
	rows, tbl, err := harness.Fig5Startup(harness.Opts{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tbl.String())
	byKind := map[core.Kind]harness.Fig5Row{}
	for _, r := range rows {
		byKind[r.Method] = r
	}
	base := byKind[core.KindNone].Startup
	for _, r := range rows {
		if r.Startup < base {
			t.Errorf("%s startup %v beats baseline %v", r.Method, r.Startup, base)
		}
	}
	if v := byKind[core.KindTLSglobals].VsBaseline; v > 1.02 {
		t.Errorf("TLSglobals startup overhead %.1f%%, want ~0", (v-1)*100)
	}
	for _, k := range []core.Kind{core.KindPIPglobals, core.KindPIEglobals} {
		if v := byKind[k].VsBaseline; v > 1.15 {
			t.Errorf("%s startup overhead %.1f%%, want <= ~10%%", k, (v-1)*100)
		}
	}
	if byKind[core.KindFSglobals].Startup <= byKind[core.KindPIEglobals].Startup {
		t.Error("FSglobals should be the slowest startup (shared FS I/O)")
	}
}

// TestFig5FSglobalsDegradesWithScale: only FSglobals startup grows
// with node count.
func TestFig5FSglobalsDegradesWithScale(t *testing.T) {
	rows1, _, err := harness.Fig5Startup(harness.Opts{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	rows8, _, err := harness.Fig5Startup(harness.Opts{}, 8)
	if err != nil {
		t.Fatal(err)
	}
	get := func(rows []harness.Fig5Row, k core.Kind) harness.Fig5Row {
		for _, r := range rows {
			if r.Method == k {
				return r
			}
		}
		t.Fatalf("missing %s", k)
		return harness.Fig5Row{}
	}
	fs1 := get(rows1, core.KindFSglobals).Startup
	fs8 := get(rows8, core.KindFSglobals).Startup
	if fs8 < fs1*2 {
		t.Errorf("FSglobals startup at 8 nodes (%v) should degrade vs 1 node (%v)", fs8, fs1)
	}
	pie1 := get(rows1, core.KindPIEglobals).Startup
	pie8 := get(rows8, core.KindPIEglobals).Startup
	if d := float64(pie8) / float64(pie1); d > 1.05 {
		t.Errorf("PIEglobals startup grew %.2fx with node count; should be constant per process", d)
	}
}

// TestFig6Shape: ~100ns baseline; every method within 12ns of it;
// TLSglobals and PIEglobals the two slowest.
func TestFig6Shape(t *testing.T) {
	rows, tbl, err := harness.Fig6ContextSwitch(harness.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tbl.String())
	byKind := map[core.Kind]harness.Fig6Row{}
	for _, r := range rows {
		byKind[r.Method] = r
		if r.Switches < 100_000 {
			t.Errorf("%s: only %d switches measured", r.Method, r.Switches)
		}
	}
	base := byKind[core.KindNone].PerSwitch
	if base < 80*time.Nanosecond || base > 130*time.Nanosecond {
		t.Errorf("baseline switch %v, want ~100ns", base)
	}
	var worst core.Kind
	var worstOver time.Duration
	for _, r := range rows {
		if r.OverBaseline > 12*time.Nanosecond {
			t.Errorf("%s exceeds baseline by %v, paper bound is 12ns", r.Method, r.OverBaseline)
		}
		if r.OverBaseline > worstOver {
			worstOver, worst = r.OverBaseline, r.Method
		}
	}
	if worst != core.KindTLSglobals && worst != core.KindPIEglobals {
		t.Errorf("worst method is %s; paper says TLSglobals and PIEglobals perform worst", worst)
	}
	if byKind[core.KindTLSglobals].PerSwitch != byKind[core.KindPIEglobals].PerSwitch {
		t.Error("TLSglobals and PIEglobals should pay the same TLS-pointer update")
	}
}

// TestFig6IndependentOfProgramShape pins §4.2's claim that switch
// overhead "does not increase based on the number of global variables
// or code size for any of the methods": a 100x bigger binary with 100x
// the globals pays exactly the same per-switch cost.
func TestFig6IndependentOfProgramShape(t *testing.T) {
	measure := func(img *elf.Image, kind core.Kind) time.Duration {
		tcfg := ampi.Config{
			Machine:   machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 1},
			VPs:       2,
			Privatize: kind,
		}
		w, err := ampi.NewWorld(tcfg, synth.PingWithImage(img))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		s := w.Scheds()[0]
		return s.SwitchTime() / time.Duration(s.Switches())
	}
	small := elf.NewBuilder("small").TaggedGlobal("g", 0).Func("main", 1024).MustBuild()
	bigB := elf.NewBuilder("big").Func("main", 1024).CodeBulk(100 << 20)
	for i := 0; i < 500; i++ {
		bigB.TaggedGlobal(fmt.Sprintf("g%03d", i), uint64(i))
	}
	big := bigB.MustBuild()
	for _, kind := range []core.Kind{core.KindTLSglobals, core.KindPIEglobals} {
		a, b := measure(small, kind), measure(big, kind)
		if a != b {
			t.Errorf("%s: per-switch cost depends on program shape: %v vs %v", kind, a, b)
		}
	}
}

// TestFig7Shape: no hidden per-access cost — every method within 1% of
// the unprivatized baseline.
func TestFig7Shape(t *testing.T) {
	rows, tbl, err := harness.Fig7JacobiAccess(harness.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tbl.String())
	for _, r := range rows {
		if r.VsBaseline > 1.01 || (r.VsBaseline != 0 && r.VsBaseline < 0.99) {
			t.Errorf("%s Jacobi time is %.2f%% off baseline; Fig. 7 shows no per-access overhead",
				r.Method, (r.VsBaseline-1)*100)
		}
	}
}

// TestFig8Shape: PIE migration = TLS + segments; the relative gap
// shrinks as heap grows.
func TestFig8Shape(t *testing.T) {
	rows, tbl, err := harness.Fig8Migration(harness.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tbl.String())
	segBytes := adcirc.Image().TotalSegmentBytes()
	prevRatio := 1e9
	for _, r := range rows {
		if r.PIETime <= r.TLSTime {
			t.Errorf("heap %d: PIE migration %v not slower than TLS %v", r.HeapBytes, r.PIETime, r.TLSTime)
		}
		extra := r.PIEBytes - r.TLSBytes
		if extra < segBytes || extra > segBytes+segBytes/2 {
			t.Errorf("heap %d: PIE extra payload %d bytes, want ~%d (code+data segments)", r.HeapBytes, extra, segBytes)
		}
		ratio := float64(r.PIETime) / float64(r.TLSTime)
		if ratio >= prevRatio {
			t.Errorf("heap %d: PIE/TLS ratio %.3f did not shrink (prev %.3f)", r.HeapBytes, ratio, prevRatio)
		}
		prevRatio = ratio
	}
	// At 100 MB the code segment is a small fraction: ratio < 1.35.
	if last := rows[len(rows)-1]; float64(last.PIETime)/float64(last.TLSTime) > 1.35 {
		t.Errorf("at 100MB heap the PIE migration penalty should be proportionally small")
	}
}

// TestICacheContradiction: PIE wins on the Bridges-2 geometry, TLS
// wins on the Stampede2 geometry — the paper's inconclusive outcome.
func TestICacheContradiction(t *testing.T) {
	rows, tbl := harness.ICacheExperiment()
	t.Log("\n" + tbl.String())
	if len(rows) != 2 {
		t.Fatalf("%d sites", len(rows))
	}
	if rows[0].Winner != "pieglobals" {
		t.Errorf("on %s the paper measured fewer misses for PIEglobals (22%%); model gives %s (%.0f%%)",
			rows[0].Site, rows[0].Winner, rows[0].Advantage*100)
	}
	if rows[1].Winner != "tlsglobals" {
		t.Errorf("on %s the paper measured fewer misses for TLSglobals (15%%); model gives %s (%.0f%%)",
			rows[1].Site, rows[1].Winner, rows[1].Advantage*100)
	}
	// Magnitudes should land near the paper's 22% and 15%.
	if a := rows[0].Advantage; a < 0.10 || a > 0.35 {
		t.Errorf("Bridges-2 PIE advantage %.0f%%, paper reports 22%%", a*100)
	}
	if a := rows[1].Advantage; a < 0.05 || a > 0.30 {
		t.Errorf("Stampede2 TLS advantage %.0f%%, paper reports 15%%", a*100)
	}
}

// TestFig5ScalingTable renders the node-count sweep and checks it has
// one row per method.
func TestFig5ScalingTable(t *testing.T) {
	tbl, err := harness.Fig5Scaling(harness.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != len(harness.Fig5Methods()) {
		t.Fatalf("%d rows", tbl.NumRows())
	}
	t.Log("\n" + tbl.String())
}

// TestMemoryFootprintShape: segment-duplicating methods pay the full
// 16 MiB per rank; TLSglobals pays kilobytes; §6's shared-code option
// removes the 14 MiB code segment from PIEglobals' footprint.
func TestMemoryFootprintShape(t *testing.T) {
	rows, tbl, err := harness.MemoryFootprint(harness.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tbl.String())
	by := map[string]uint64{}
	for _, r := range rows {
		by[r.Method] = r.PerRankBytes
	}
	if by["tlsglobals"] > 1<<20 {
		t.Errorf("TLSglobals per-rank footprint %d; should be KiB-scale", by["tlsglobals"])
	}
	for _, m := range []string{"pipglobals", "fsglobals", "pieglobals"} {
		if by[m] < 15<<20 {
			t.Errorf("%s footprint %d; should carry the full segments", m, by[m])
		}
	}
	if by["pieglobals+sharedcode"] >= by["pieglobals"]-(13<<20) {
		t.Errorf("shared-code option saved too little: %d vs %d", by["pieglobals+sharedcode"], by["pieglobals"])
	}
}

// A failing point is named by its label, whatever its method.
func TestFailingPointIsNamedByItsLabel(t *testing.T) {
	err := harness.RunPoint("method=pieglobals+sharedcode", scenario.Spec{
		Machine:  machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 1},
		VPs:      1,
		Method:   core.KindPIEglobalsSharedCode,
		Workload: "test-fail",
	})
	if err == nil || !strings.HasPrefix(err.Error(), "method=pieglobals+sharedcode: ") {
		t.Fatalf("error %v, want it named method=pieglobals+sharedcode", err)
	}
}

// TestAdcircScalingShape checks Table 2's qualitative shape on a
// reduced core sweep: positive speedup everywhere, peaking at small-mid
// core counts and tapering at the strong-scaling limit.
func TestAdcircScalingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("adcirc sweep is the long experiment")
	}
	cfg := adcirc.DefaultConfig()
	rows, t2, f9, err := harness.AdcircScaling(harness.Opts{}, cfg, []int{1, 4, 16, 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + t2.String())
	t.Log("\n" + f9.String())
	for _, r := range rows {
		if r.SpeedupPct <= 0 {
			t.Errorf("cores=%d: no speedup (%.0f%%); paper reports 13-79%%", r.Cores, r.SpeedupPct)
		}
	}
	byCores := map[int]float64{}
	for _, r := range rows {
		byCores[r.Cores] = r.SpeedupPct
	}
	if byCores[4] <= byCores[1] {
		t.Errorf("speedup at 4 cores (%.0f%%) should exceed 1 core (%.0f%%)", byCores[4], byCores[1])
	}
	if byCores[64] >= byCores[4] {
		t.Errorf("speedup at 64 cores (%.0f%%) should taper below the 4-core peak (%.0f%%)", byCores[64], byCores[4])
	}
}

// AdcircScaling runs only the configs a document can say: the adcirc
// workload's default and its quick size. Any other is refused, never
// replaced by one of those two.
func TestAdcircScalingRunsOnlyConfigsADocumentSays(t *testing.T) {
	quick := adcirc.DefaultConfig()
	quick.Width, quick.Height, quick.Steps, quick.LBPeriod = 96, 128, 8, 4
	if _, _, _, err := harness.AdcircScaling(harness.Opts{}, quick, []int{2}); err != nil {
		t.Fatalf("the quick size: %v", err)
	}
	for _, mutate := range []func(*adcirc.Config){
		func(c *adcirc.Config) { c.Steps++ },
		func(c *adcirc.Config) { c.LBPeriod = 0 },
		func(c *adcirc.Config) { *c = quick; c.WetFlops++ },
	} {
		cfg := adcirc.DefaultConfig()
		mutate(&cfg)
		if _, _, _, err := harness.AdcircScaling(harness.Opts{}, cfg, []int{2}); err == nil {
			t.Errorf("config %+v ran", cfg)
		}
	}
}
