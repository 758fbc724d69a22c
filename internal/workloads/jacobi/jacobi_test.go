package jacobi_test

import (
	"math"
	"testing"

	"provirt/internal/ampi"
	"provirt/internal/core"
	"provirt/internal/lb"
	"provirt/internal/machine"
	"provirt/internal/workloads/jacobi"
)

func TestDecompose3D(t *testing.T) {
	cases := map[int][3]int{
		1:  {1, 1, 1},
		2:  {2, 1, 1},
		4:  {2, 2, 1},
		8:  {2, 2, 2},
		12: {3, 2, 2},
		27: {3, 3, 3},
		64: {4, 4, 4},
	}
	for v, want := range cases {
		px, py, pz := jacobi.Decompose3D(v)
		if px*py*pz != v {
			t.Fatalf("Decompose3D(%d) = %d*%d*%d != %d", v, px, py, pz, v)
		}
		if px != want[0] || py != want[1] || pz != want[2] {
			t.Errorf("Decompose3D(%d) = (%d,%d,%d), want %v", v, px, py, pz, want)
		}
	}
}

// run executes the distributed solver and returns the global field sum
// and residual.
func run(t *testing.T, cfg jacobi.Config, vps, pes int, kind core.Kind, balancer lb.Strategy) (sum, resid float64, w *ampi.World) {
	t.Helper()
	var localSums []float64
	prog := jacobi.New(cfg, func(res jacobi.Result) {
		localSums = append(localSums, res.LocalSum)
		resid = res.Residual
	})
	w, err := ampi.NewWorld(ampi.Config{
		Machine:   machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: pes},
		VPs:       vps,
		Privatize: kind,
		Balancer:  balancer,
	}, prog)
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	if err := w.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, s := range localSums {
		sum += s
	}
	return sum, resid, w
}

// globalSum is the sum of a serial field.
func globalSum(field []float64) float64 {
	var s float64
	for _, v := range field {
		s += v
	}
	return s
}

// TestMatchesSerialOracle compares the virtualized distributed solve
// against a serial solve of the same problem, across decompositions
// and privatization methods.
func TestMatchesSerialOracle(t *testing.T) {
	cfg := jacobi.Config{NX: 12, NY: 10, NZ: 8, Iters: 7}
	field, serialResid := jacobi.SerialSolve(cfg)
	want := globalSum(field)
	for _, vps := range []int{1, 2, 4, 8} {
		for _, kind := range []core.Kind{core.KindNone, core.KindPIEglobals} {
			sum, resid, _ := run(t, cfg, vps, 2, kind, nil)
			if math.Abs(sum-want) > 1e-9*math.Abs(want) {
				t.Errorf("vps=%d %s: field sum %.12f, serial %.12f", vps, kind, sum, want)
			}
			if math.Abs(resid-serialResid) > 1e-9 {
				t.Errorf("vps=%d %s: residual %.12g, serial %.12g", vps, kind, resid, serialResid)
			}
		}
	}
}

// TestResultsIndependentOfMethod: the numerical answer must not depend
// on the privatization method (only timings do).
func TestResultsIndependentOfMethod(t *testing.T) {
	cfg := jacobi.Config{NX: 8, NY: 8, NZ: 8, Iters: 5}
	var sums []float64
	for _, kind := range []core.Kind{
		core.KindManual, core.KindTLSglobals, core.KindPIPglobals,
		core.KindFSglobals, core.KindPIEglobals,
	} {
		s, _, _ := run(t, cfg, 4, 2, kind, nil)
		sums = append(sums, s)
	}
	for i := 1; i < len(sums); i++ {
		if sums[i] != sums[0] {
			t.Errorf("method %d produced sum %v, method 0 produced %v", i, sums[i], sums[0])
		}
	}
}

// TestOverdecompositionHidesLatency: with compute spread over more
// VPs than PEs, message waits overlap with other ranks' compute, so
// 8x virtualization should not be slower than 1x by more than the
// scheduling overhead, and on multi-PE runs is typically faster.
func TestOverdecompositionHidesLatency(t *testing.T) {
	cfg := jacobi.Config{NX: 16, NY: 16, NZ: 16, Iters: 6}
	_, _, w1 := run(t, cfg, 2, 2, core.KindPIEglobals, nil)
	_, _, w8 := run(t, cfg, 16, 2, core.KindPIEglobals, nil)
	t1, t8 := w1.ExecutionTime(), w8.ExecutionTime()
	if t8 > t1*3/2 {
		t.Errorf("8x overdecomposition time %v vs 1x %v: scheduling overhead dominates", t8, t1)
	}
}

// TestAccessCounting verifies the privatized inner-loop accesses are
// charged per cell.
func TestAccessCounting(t *testing.T) {
	cfg := jacobi.Config{NX: 8, NY: 8, NZ: 8, Iters: 3, AccessesPerCell: 6}
	var accesses uint64
	prog := jacobi.New(cfg, func(res jacobi.Result) { accesses += res.Accesses })
	w, err := ampi.NewWorld(ampi.Config{
		Machine:   machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 1},
		VPs:       2,
		Privatize: core.KindTLSglobals,
	}, prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	cells := uint64(8 * 8 * 8)
	min := cells * 6 * 3 // charged accesses alone
	if accesses < min {
		t.Fatalf("counted %d accesses, want at least %d", accesses, min)
	}
}

// TestInnerLoopHoldsHandles proves the solver's inner loop does not pay
// a symbol lookup per access: ranks resolve each privatized global to a
// VarHandle once, so the image's name-lookup count depends on setup
// (ranks x referenced variables), not on iteration count or per-cell
// access volume. The image is shared by every world in the process, so
// its counter is cumulative: each run reads the lookups it added.
func TestInnerLoopHoldsHandles(t *testing.T) {
	lookupsFor := func(iters int) (lookups int64, accesses uint64) {
		cfg := jacobi.Config{NX: 8, NY: 8, NZ: 8, Iters: iters, AccessesPerCell: 6}
		prog := jacobi.New(cfg, func(res jacobi.Result) { accesses += res.Accesses })
		before := prog.Image.VarLookups()
		w, err := ampi.NewWorld(ampi.Config{
			Machine:   machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 1},
			VPs:       2,
			Privatize: core.KindPIEglobals,
		}, prog)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return prog.Image.VarLookups() - before, accesses
	}
	short, shortAcc := lookupsFor(2)
	long, longAcc := lookupsFor(20)
	if longAcc <= shortAcc {
		t.Fatalf("long run charged %d accesses vs short %d: workload not exercising the loop", longAcc, shortAcc)
	}
	if long != short {
		t.Fatalf("name lookups scale with iterations (%d at 2 iters, %d at 20): inner loop is re-resolving", short, long)
	}
	if uint64(long) >= longAcc {
		t.Fatalf("%d lookups for %d accesses: handles are not being held", long, longAcc)
	}
}
