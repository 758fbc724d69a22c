package core_test

import (
	"runtime"
	"testing"

	"provirt/internal/workloads/adcirc"
)

// BenchmarkPIEglobalsSetup is the privatization step of a world build
// as every PIEglobals world takes it: the adcirc image, whose layout and
// frozen data segment are built once per process, loaded once into a
// process and duplicated into 8 ranks, pointer scan included.
func BenchmarkPIEglobalsSetup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pieSetup(b, adcirc.Image(), 8)
	}
}

// tlsRanks is how many ranks BenchmarkSetupPIEglobalsTLS sets up in
// one process: table2's largest per-process count at ratio 2.
const tlsRanks = 64

// setupPIEglobalsTLS sets up tlsRanks adcirc ranks under PIEglobals,
// whose 320 tagged globals live in a 2 560 B TLS block per rank, and
// makes each rank's one store into global_000, as the workload's first
// timestep does: what a rank's TLS block costs the host up to the point
// it has run.
func setupPIEglobalsTLS(tb testing.TB) {
	for _, c := range pieSetup(tb, adcirc.Image(), tlsRanks).Contexts {
		c.Store("global_000", 1)
	}
}

// BenchmarkSetupPIEglobalsTLS is world build's TLS side: a rank's block
// is a copy-on-write view of the plan's frozen one, so a rank pays for
// the one granule its store reaches, not for the whole block.
func BenchmarkSetupPIEglobalsTLS(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		setupPIEglobalsTLS(b)
	}
}

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// setupBytesPerRankBudget is what BenchmarkSetupPIEglobalsTLS's setup
// allocates per rank, measured at 3 902 B (go1.24.0, linux/amd64), plus
// 10 %. It was 6 307 B while each rank copied its whole 2 560 B TLS
// block; a return to that exceeds the budget.
const setupBytesPerRankBudget = 3_902 * 11 / 10

func TestSetupPIEglobalsTLSAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	setupPIEglobalsTLS(t) // the image and its layout are built once per process
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		setupPIEglobalsTLS(t)
	}
	runtime.ReadMemStats(&after)
	perRank := (after.TotalAlloc - before.TotalAlloc) / (runs * tlsRanks)
	t.Logf("%d B per rank", perRank)
	if perRank > setupBytesPerRankBudget {
		t.Errorf("setting up a PIEglobals adcirc rank allocates %d B, budget %d", perRank, setupBytesPerRankBudget)
	}
}
