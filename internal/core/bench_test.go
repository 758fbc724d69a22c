package core_test

import (
	"math"
	"runtime"
	"testing"

	"provirt/internal/core"
	"provirt/internal/workloads/adcirc"
)

// BenchmarkPIEglobalsSetup is the privatization step of a world build
// as every PIEglobals world takes it: the adcirc image, whose layout and
// frozen data segment are built once per process, loaded once into a
// process and duplicated into 8 ranks, pointer scan included.
func BenchmarkPIEglobalsSetup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		kindSetup(b, core.KindPIEglobals, adcirc.Image(), 8)
	}
}

// tlsRanks is how many ranks BenchmarkSetupPIEglobalsTLS sets up in
// one process: table2's largest per-process count at ratio 2.
const tlsRanks = 64

// setupRanks sets up tlsRanks adcirc ranks under kind and makes each
// rank's one store into global_000, as the workload's first timestep
// does: what a rank's private globals cost the host up to the point it
// has run. Under PIEglobals the 320 tagged globals live in a 2 560 B TLS
// block per rank, under manual all 321 in a heap block.
func setupRanks(tb testing.TB, kind core.Kind) {
	for _, c := range kindSetup(tb, kind, adcirc.Image(), tlsRanks).Contexts {
		c.Store("global_000", 1)
	}
}

// BenchmarkSetupPIEglobalsTLS is world build's TLS side: a rank's block
// is a copy-on-write view of the plan's frozen one, so a rank pays for
// the one granule its store reaches, not for the whole block.
func BenchmarkSetupPIEglobalsTLS(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		setupRanks(b, core.KindPIEglobals)
	}
}

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// setupBudgets is what setupRanks allocates per rank under each kind,
// measured on go1.24.0, linux/amd64 (PIEglobals 3 902 B, manual
// 1 228 B), plus 10 %. Each rank's block of globals is a copy-on-write
// view of its plan's, so a rank pays for the one granule its store
// reaches. A return to copying the whole block exceeds the budget:
// PIEglobals allocated 6 307 B per rank while each rank copied its
// 2 560 B TLS block, manual 3 356 B while each copied its 321 initial
// cells.
var setupBudgets = []struct {
	kind    core.Kind
	perRank uint64
}{
	{core.KindPIEglobals, 3_902 * 11 / 10},
	{core.KindManual, 1_228 * 11 / 10},
}

func TestSetupPIEglobalsTLSAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	for _, b := range setupBudgets {
		setupRanks(t, b.kind) // the image and its layout are built once per process
		// TotalAlloc counts the whole process, so another goroutine of
		// the test binary allocating during a round only adds bytes to
		// it. The smallest of several rounds is setup's own.
		const runs, rounds = 5, 3
		least := uint64(math.MaxUint64)
		for range rounds {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				setupRanks(t, b.kind)
			}
			runtime.ReadMemStats(&after)
			least = min(least, (after.TotalAlloc-before.TotalAlloc)/(runs*tlsRanks))
		}
		t.Logf("%s: %d B per rank", b.kind, least)
		if least > b.perRank {
			t.Errorf("setting up a %s adcirc rank allocates %d B, budget %d", b.kind, least, b.perRank)
		}
	}
}
