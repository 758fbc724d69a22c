package synth_test

import (
	"testing"

	"provirt/internal/ampi"
	"provirt/internal/core"
	"provirt/internal/elf"
	"provirt/internal/machine"
	"provirt/internal/sim"
	"provirt/internal/workloads/synth"
)

func TestHelloImageShape(t *testing.T) {
	img := synth.HelloImage()
	if img.VarByName("my_rank") == nil || !img.VarByName("my_rank").Tagged {
		t.Error("my_rank must be a tagged mutable global")
	}
	if img.VarByName("num_ranks").Class != elf.ClassConst {
		t.Error("num_ranks must be write-once (the paper calls it safe to share)")
	}
	if img.VarByName("calls").Class != elf.ClassStatic {
		t.Error("calls must be a static")
	}
	if img.FuncByName("main") == nil {
		t.Error("missing main")
	}
}

func TestEmptyImageShape(t *testing.T) {
	img := synth.EmptyImage()
	if img.CodeSize < 3<<20 {
		t.Errorf("empty image code %d, want the paper's ~3MB Jacobi-class binary", img.CodeSize)
	}
}

func TestPingSwitchCount(t *testing.T) {
	w, err := ampi.NewWorld(ampi.Config{
		Machine:   machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 1},
		VPs:       2,
		Privatize: core.KindNone,
	}, synth.Ping())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if got := w.TotalSwitches(); got < synth.PingCount {
		t.Fatalf("%d switches, want >= %d", got, synth.PingCount)
	}
}

// computeBound returns a program where each rank computes for the
// given virtual duration, yielding periodically.
func computeBound(perRank []sim.Time, chunks int) *ampi.Program {
	return &ampi.Program{
		Image: synth.EmptyImage(),
		Main: func(r *ampi.Rank) {
			total := perRank[r.Rank()%len(perRank)]
			for i := 0; i < chunks; i++ {
				r.Compute(total / sim.Time(chunks))
				r.Yield()
			}
			r.Barrier()
		},
	}
}

func TestComputeBoundCharges(t *testing.T) {
	per := []sim.Time{1e6, 2e6}
	w, err := ampi.NewWorld(ampi.Config{
		Machine:   machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 1},
		VPs:       2,
		Privatize: core.KindNone,
	}, computeBound(per, 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	// Serialized on one PE: at least 3 ms of compute.
	if w.ExecutionTime() < 3e6 {
		t.Fatalf("execution %v, want >= 3ms", w.ExecutionTime())
	}
}
