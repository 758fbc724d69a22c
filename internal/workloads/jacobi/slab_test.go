package jacobi_test

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"provirt/internal/ampi"
	"provirt/internal/core"
	"provirt/internal/machine"
	"provirt/internal/workloads/jacobi"
)

// worldShape is one Jacobi world: a grid over some ranks on a machine.
type worldShape struct {
	grid, vps int
	machine   machine.Config
}

// switchWorld is the 64-rank world of the switch_msg benchmark workload:
// the default 24^3 grid in 6^3 blocks on two nodes of four PEs.
var switchWorld = worldShape{grid: 24, vps: 64, machine: machine.Config{Nodes: 2, ProcsPerNode: 1, PEsPerProc: 4}}

// runWorld builds and runs the world under TLSglobals and returns every
// rank's result in rank order.
func runWorld(tb testing.TB, s worldShape) []jacobi.Result {
	tb.Helper()
	res, err := execWorld(s)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// execWorld is runWorld for a goroutine other than the test's.
func execWorld(s worldShape) ([]jacobi.Result, error) {
	cfg := jacobi.DefaultConfig()
	cfg.NX, cfg.NY, cfg.NZ = s.grid, s.grid, s.grid
	res := make([]jacobi.Result, 0, s.vps)
	w, err := ampi.NewWorld(ampi.Config{
		Machine:   s.machine,
		VPs:       s.vps,
		Privatize: core.KindTLSglobals,
	}, jacobi.New(cfg, func(r jacobi.Result) { res = append(res, r) }))
	if err != nil {
		return nil, err
	}
	if err := w.Run(); err != nil {
		return nil, err
	}
	if len(res) != s.vps {
		return nil, fmt.Errorf("%d results from %d ranks", len(res), s.vps)
	}
	slices.SortFunc(res, func(a, b jacobi.Result) int { return a.VP - b.VP })
	return res, nil
}

// sameResults reports the first rank whose result differs from want in
// any bit. Both hold one result per rank.
func sameResults(got, want []jacobi.Result) (int, bool) {
	for i := range want {
		g, w := got[i], want[i]
		if g.VP != w.VP || math.Float64bits(g.Residual) != math.Float64bits(w.Residual) ||
			math.Float64bits(g.LocalSum) != math.Float64bits(w.LocalSum) ||
			g.Sweeps != w.Sweeps || g.Accesses != w.Accesses || g.ElapsedNS != w.ElapsedNS {
			return i, false
		}
	}
	return 0, true
}

// TestRecycledSlabsChangeNoResult runs worlds whose ranks take their
// slabs from storage earlier worlds returned: the switch_msg world, a
// 12^3 world of eight larger blocks, the first world again, and then two
// of it at once, whose ranks draw on the pool together. Every run of a
// shape gives its first run's results bit for bit.
func TestRecycledSlabsChangeNoResult(t *testing.T) {
	small := worldShape{grid: 12, vps: 8, machine: machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 2}}
	first := runWorld(t, switchWorld)
	smallFirst := runWorld(t, small)
	check := func(when string, got, want []jacobi.Result) {
		t.Helper()
		if i, ok := sameResults(got, want); !ok {
			t.Errorf("%s: rank %d gives %+v, first run %+v", when, i, got[i], want[i])
		}
	}
	check("switch_msg world after the 12^3 world", runWorld(t, switchWorld), first)
	check("12^3 world again", runWorld(t, small), smallFirst)

	var wg sync.WaitGroup
	var both [2][]jacobi.Result
	var errs [2]error
	for i := range both {
		wg.Add(1)
		go func() {
			defer wg.Done()
			both[i], errs[i] = execWorld(switchWorld)
		}()
	}
	wg.Wait()
	for i, got := range both {
		if errs[i] != nil {
			t.Fatalf("concurrent world %d: %v", i, errs[i])
		}
		check(fmt.Sprintf("concurrent world %d", i), got, first)
	}
}

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// worldBytesPerRankBudget is what a warm switch_msg world allocates per
// rank, measured at 1 372 B (go1.24.0, linux/amd64), plus 10 %. It was
// 16 602 B while every rank allocated its two grids, its halo planes
// (about 10.8 KB of them per 6^3 block) and its face table afresh, and
// 4 442 B while every world refilled empty message pools; a return to
// either exceeds the budget. What is left is the world's own: contexts,
// heaps, threads and match queues.
const worldBytesPerRankBudget = 1_372 * 11 / 10

func TestJacobiWorldAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	// A collection empties sync.Pool; with none, every rank of a warm
	// world finds a slab.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runWorld(t, switchWorld) // the image, its layout and the slabs
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		runWorld(t, switchWorld)
	}
	runtime.ReadMemStats(&after)
	perRank := (after.TotalAlloc - before.TotalAlloc) / (runs * uint64(switchWorld.vps))
	t.Logf("%d B per rank", perRank)
	if perRank > worldBytesPerRankBudget {
		t.Errorf("a warm 64-rank Jacobi world allocates %d B per rank, budget %d", perRank, worldBytesPerRankBudget)
	}
}

// BenchmarkJacobiWorld builds and runs the switch_msg world: world
// build, ten sweeps with their halo exchanges, and the final reduction.
func BenchmarkJacobiWorld(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runWorld(b, switchWorld)
	}
}
