package ampi_test

import (
	"math"
	"sync"
	"testing"

	"provirt/internal/ampi"
	"provirt/internal/core"
	"provirt/internal/elf"
	"provirt/internal/machine"
	"provirt/internal/workloads/synth"
)

// runProgram builds and runs a program on the given machine shape,
// failing the test on any error.
func runProgram(t *testing.T, cfg ampi.Config, prog *ampi.Program) *ampi.World {
	t.Helper()
	w, err := ampi.NewWorld(cfg, prog)
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	if err := w.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return w
}

func mediumConfig(v int) ampi.Config {
	return ampi.Config{
		Machine:   machine.Config{Nodes: 2, ProcsPerNode: 1, PEsPerProc: 2},
		VPs:       v,
		Privatize: core.KindPIEglobals,
	}
}

func TestSendRecvBasic(t *testing.T) {
	var got []float64
	prog := &ampi.Program{
		Image: synth.EmptyImage(),
		Main: func(r *ampi.Rank) {
			if r.Rank() == 0 {
				r.Send(1, 7, []float64{1, 2, 3}, 0)
			} else if r.Rank() == 1 {
				got = r.Wait(r.Irecv(0, 7, make([]float64, 3)))
			}
		},
	}
	runProgram(t, mediumConfig(2), prog)
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("received %v, want [1 2 3]", got)
	}
}

func TestRecvWildcards(t *testing.T) {
	order := make([]int, 0, 3)
	prog := &ampi.Program{
		Image: synth.EmptyImage(),
		Main: func(r *ampi.Rank) {
			if r.Rank() == 0 {
				buf := make([]float64, 1)
				for i := 0; i < 3; i++ {
					data := r.Wait(r.Irecv(ampi.AnySource, ampi.AnyTag, buf))
					order = append(order, int(data[0]))
				}
			} else {
				r.Send(0, r.Rank(), []float64{float64(r.Rank())}, 0)
			}
		},
	}
	runProgram(t, mediumConfig(4), prog)
	if len(order) != 3 {
		t.Fatalf("root received %d messages, want 3", len(order))
	}
	seen := map[int]bool{}
	for _, s := range order {
		seen[s] = true
	}
	if len(seen) != 3 {
		t.Fatalf("duplicate senders in %v", order)
	}
}

func TestMessageOrderingPerPair(t *testing.T) {
	const n = 20
	var got []float64
	prog := &ampi.Program{
		Image: synth.EmptyImage(),
		Main: func(r *ampi.Rank) {
			if r.Rank() == 0 {
				for i := 0; i < n; i++ {
					r.Send(1, 5, []float64{float64(i)}, 0)
				}
			} else {
				for i := 0; i < n; i++ {
					got = append(got, r.Wait(r.Irecv(0, 5, make([]float64, 1)))[0])
				}
			}
		},
	}
	runProgram(t, mediumConfig(2), prog)
	for i, v := range got {
		if v != float64(i) {
			t.Fatalf("message %d out of order: got %v", i, got)
		}
	}
}

// TestIrecvWaitall posts every receive before any send; sends are eager,
// so each lands on a posted request.
func TestIrecvWaitall(t *testing.T) {
	sums := make([]float64, 8)
	prog := &ampi.Program{
		Image: synth.EmptyImage(),
		Main: func(r *ampi.Rank) {
			size := r.Size()
			reqs := make([]*ampi.Request, 0, size-1)
			in := make([]float64, size)
			for p := 0; p < size; p++ {
				if p == r.Rank() {
					continue
				}
				reqs = append(reqs, r.Irecv(p, 3, in[p:p+1]))
			}
			for p := 0; p < size; p++ {
				if p == r.Rank() {
					continue
				}
				r.Send(p, 3, []float64{float64(r.Rank())}, 0)
			}
			r.Waitall(reqs)
			for _, x := range in {
				sums[r.Rank()] += x
			}
		},
	}
	runProgram(t, mediumConfig(8), prog)
	for vp, s := range sums {
		want := float64(0+1+2+3+4+5+6+7) - float64(vp)
		if s != want {
			t.Errorf("rank %d sum %v, want %v", vp, s, want)
		}
	}
}

func TestBcastAllShapes(t *testing.T) {
	for _, v := range []int{1, 2, 3, 5, 8, 13, 16} {
		vals := make([]float64, v)
		prog := &ampi.Program{
			Image: synth.EmptyImage(),
			Main: func(r *ampi.Rank) {
				// Rank Size/2 holds the largest value, so an OpMax
				// allreduce is its broadcast to every rank.
				mine := float64(r.Rank())
				if r.Rank() == r.Size()/2 {
					mine = 42.5
				}
				vals[r.Rank()] = r.Allreduce([]float64{mine}, ampi.OpMax)[0]
			},
		}
		runProgram(t, mediumConfig(v), prog)
		for vp, x := range vals {
			if x != 42.5 {
				t.Errorf("v=%d rank %d got %v", v, vp, x)
			}
		}
	}
}

func TestReduceAllreduce(t *testing.T) {
	for _, v := range []int{1, 2, 4, 7, 16} {
		results := make([]float64, v)
		maxes := make([]float64, v)
		prog := &ampi.Program{
			Image: synth.EmptyImage(),
			Main: func(r *ampi.Rank) {
				me := float64(r.Rank() + 1)
				sum := r.Allreduce([]float64{me}, ampi.OpSum)
				results[r.Rank()] = sum[0]
				mx := r.Allreduce([]float64{me}, ampi.OpMax)
				maxes[r.Rank()] = mx[0]
			},
		}
		runProgram(t, mediumConfig(v), prog)
		want := float64(v*(v+1)) / 2
		for vp := range results {
			if results[vp] != want {
				t.Errorf("v=%d rank %d allreduce sum %v, want %v", v, vp, results[vp], want)
			}
			if maxes[vp] != float64(v) {
				t.Errorf("v=%d rank %d allreduce max %v, want %v", v, vp, maxes[vp], float64(v))
			}
		}
	}
}

func TestUserDefinedOpOffsetTranslation(t *testing.T) {
	// A user-defined "sum of squares" operator must work under
	// PIEglobals, where every rank's copy of the function lives at a
	// different address (§3.3).
	img := elf.NewBuilder("userop").
		Global("g", 0).
		Func("main", 1024).
		Func("sumsq_op", 256).
		CodeBulk(1 << 20).
		MustBuild()
	results := make([]float64, 4)
	prog := &ampi.Program{
		Image: img,
		ReduceFuncs: map[string]ampi.ReduceFunc{
			"sumsq_op": func(in, acc []float64) []float64 {
				if acc == nil {
					acc = make([]float64, len(in))
				}
				for i := range in {
					acc[i] += in[i] * in[i]
				}
				return acc
			},
		},
		Main: func(r *ampi.Rank) {
			op, err := r.OpCreate("sumsq_op")
			if err != nil {
				panic(err)
			}
			// Rank contributions 1..4, combined by the op on whichever
			// rank holds the partial result, then broadcast.
			results[r.Rank()] = r.Allreduce([]float64{float64(r.Rank() + 1)}, op)[0]
		},
	}
	w := runProgram(t, mediumConfig(4), prog)
	// Verify each rank's copy of the op function sits at a distinct
	// address while the stored offset is shared.
	addr0, _ := w.Ranks[0].Ctx().FuncAddr("sumsq_op")
	addr1, _ := w.Ranks[1].Ctx().FuncAddr("sumsq_op")
	if addr0 == addr1 {
		t.Error("PIEglobals ranks share a function address; segment duplication failed")
	}
	if results[0] == 0 {
		t.Error("reduction produced no result")
	}
	for vp, x := range results {
		if x != results[0] {
			t.Errorf("rank %d got %v, rank 0 got %v", vp, x, results[0])
		}
	}
}

func TestApplyOpOnEmptyPEFails(t *testing.T) {
	// Reproduce the paper's documented runtime error: a user-defined
	// reduction cannot be processed on a PE with no resident virtual
	// ranks under PIEglobals (§3.3).
	img := elf.NewBuilder("emptycore").
		Global("g", 0).
		Func("main", 1024).
		Func("op_fn", 128).
		MustBuild()
	var once sync.Once
	var opErr error
	prog := &ampi.Program{
		Image: img,
		ReduceFuncs: map[string]ampi.ReduceFunc{
			"op_fn": func(in, acc []float64) []float64 { return in },
		},
		Main: func(r *ampi.Rank) {
			op, err := r.OpCreate("op_fn")
			if err != nil {
				panic(err)
			}
			once.Do(func() {
				// PE 3 hosts no ranks: 2 VPs block-mapped onto 4 PEs
				// leaves PEs 2 and 3 empty.
				emptyPE := r.World().Cluster.PE(3)
				_, opErr = r.World().ApplyOpOnPE(emptyPE, op, []float64{1}, nil)
			})
		},
	}
	cfg := ampi.Config{
		Machine:   machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 4},
		VPs:       2,
		Privatize: core.KindPIEglobals,
	}
	runProgram(t, cfg, prog)
	if opErr == nil {
		t.Fatal("expected user-defined reduction on an empty PE to fail under PIEglobals")
	}
}

func TestWtimeAdvances(t *testing.T) {
	var t0, t1 float64
	prog := &ampi.Program{
		Image: synth.EmptyImage(),
		Main: func(r *ampi.Rank) {
			t0 = r.Wtime().Seconds()
			r.Compute(1e6) // 1 ms
			t1 = r.Wtime().Seconds()
		},
	}
	runProgram(t, mediumConfig(1), prog)
	if t1-t0 < 0.001-1e-9 {
		t.Fatalf("Wtime advanced %v s across a 1 ms compute", t1-t0)
	}
	if math.IsNaN(t1) {
		t.Fatal("NaN wtime")
	}
}
