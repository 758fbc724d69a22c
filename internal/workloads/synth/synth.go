// Package synth provides small synthetic MPI programs: the paper's
// hello-world privatization demonstrator (Fig. 2/3), an empty program
// for startup measurements (Fig. 5), and a two-thread ping benchmark
// for context-switch measurements (Fig. 6).
package synth

import (
	"fmt"
	"sync"

	"provirt/internal/ampi"
	"provirt/internal/elf"
	"provirt/internal/sim"
)

// HelloImage models the Fig. 2 C program: a mutable global my_rank, a
// write-once global num_ranks, a mutable static call counter, and a
// main function. Both mutable variables are tagged thread_local so the
// image is also usable with TLSglobals. Like every image here, it is
// built once per process and shared by every world that loads it.
func HelloImage() *elf.Image { return helloImage() }

var helloImage = sync.OnceValue(func() *elf.Image {
	return elf.NewBuilder("hello_world").
		Language("c").
		TaggedGlobal("my_rank", 0).
		Const("num_ranks", 0).
		TaggedStatic("calls", 0).
		Func("main", 2048).
		Func("report", 512).
		CodeBulk(64 << 10).
		MustBuild()
})

// HelloResult is one rank's observed output line.
type HelloResult struct {
	VP      int
	Printed uint64
}

// Hello returns the Fig. 2 program. Each rank stores its rank number
// into the global my_rank, enters a barrier, then "prints" the global's
// value through sink. Without privatization, ranks sharing a process
// print the last writer's rank (Fig. 3); with privatization each prints
// its own.
func Hello(sink func(HelloResult)) *ampi.Program {
	return &ampi.Program{
		Image: HelloImage(),
		Main: func(r *ampi.Rank) {
			ctx := r.Ctx()
			myRank := ctx.Var("my_rank")
			calls := ctx.Var("calls")
			myRank.Store(uint64(r.Rank()))
			calls.Store(calls.Load() + 1)
			r.Barrier()
			sink(HelloResult{VP: r.Rank(), Printed: myRank.Load()})
		},
	}
}

// EmptyImage is a minimal program image for startup measurements, with
// a modest 3 MB code segment like the paper's Jacobi-3D binary.
func EmptyImage() *elf.Image { return emptyImage() }

var emptyImage = sync.OnceValue(func() *elf.Image {
	return elf.NewBuilder("empty").
		Global("g0", 0).
		Static("s0", 0).
		Func("main", 1024).
		CodeBulk(3 << 20).
		DataBulk(256 << 10).
		MustBuild()
})

// Empty returns a program whose ranks immediately synchronize and
// exit; its job time is dominated by startup.
func Empty() *ampi.Program {
	return &ampi.Program{
		Image: EmptyImage(),
		Main: func(r *ampi.Rank) {
			r.Barrier()
		},
	}
}

// PingCount is the number of context switches the Fig. 6 microbenchmark
// performs between its two user-level threads.
const PingCount = 100_000

// Ping returns the Fig. 6 microbenchmark: two ranks on one PE that
// yield back and forth PingCount times, so the job's scheduler switch
// count and switch time measure per-switch overhead for the active
// privatization method.
func Ping() *ampi.Program {
	return PingWithImage(EmptyImage())
}

// PingWithImage is Ping over an arbitrary program image, used to
// verify that context-switch cost does not depend on code size or
// global-variable count (§4.2).
func PingWithImage(img *elf.Image) *ampi.Program {
	return &ampi.Program{
		Image: img,
		Main: func(r *ampi.Rank) {
			for i := 0; i < PingCount/2; i++ {
				r.Yield()
			}
		},
	}
}

// CheckpointedImage tracks progress in privatized globals (an
// iteration counter and an accumulator), so a restarted run can skip
// completed work hot-start style.
func CheckpointedImage() *elf.Image { return checkpointedImage() }

var checkpointedImage = sync.OnceValue(func() *elf.Image {
	return elf.NewBuilder("ckpt_synth").
		TaggedGlobal("iter", 0).
		TaggedGlobal("acc", 0).
		Func("main", 1024).
		CodeBulk(1 << 20).
		DataBulk(256 << 10).
		MustBuild()
})

// Checkpointed returns an iterative program for fault-tolerance runs:
// each rank performs iters iterations of compute work, folding a
// rank-dependent term into a privatized accumulator, and offers the
// runtime a checkpoint (CheckpointIfDue) at every iteration boundary.
// Restarted ranks resume from the restored iteration counter, so the
// final accumulators come out right only if no work is lost or
// double-counted — the property recovery tests pin. finals[rank]
// receives each rank's accumulator; compare against CheckpointedAcc.
func Checkpointed(iters int, compute sim.Time, finals []uint64) *ampi.Program {
	return checkpointed(iters, compute, func(rank int, acc uint64) { finals[rank] = acc })
}

// CheckpointedChecked is Checkpointed whose ranks verify their own
// final accumulator against CheckpointedAcc instead of reporting it: a
// rank that lost or double-counted work panics, which fails the run.
// It needs no per-run sink, so it can be built without knowing the
// rank count (the registered "checkpointed" workload).
func CheckpointedChecked(iters int, compute sim.Time) *ampi.Program {
	return checkpointed(iters, compute, func(rank int, acc uint64) {
		if want := CheckpointedAcc(iters, rank); acc != want {
			panic(fmt.Sprintf("rank %d finished with acc %d, want %d: a restart lost or double-counted work", rank, acc, want))
		}
	})
}

func checkpointed(iters int, compute sim.Time, done func(rank int, acc uint64)) *ampi.Program {
	return &ampi.Program{
		Image: CheckpointedImage(),
		Main: func(r *ampi.Rank) {
			ctx := r.Ctx()
			for int(ctx.Load("iter")) < iters {
				it := ctx.Load("iter")
				r.Compute(compute)
				ctx.Store("acc", ctx.Load("acc")+(it+1)*uint64(r.Rank()+1))
				ctx.Store("iter", it+1)
				r.CheckpointIfDue()
			}
			r.Barrier()
			done(r.Rank(), ctx.Load("acc"))
		},
	}
}

// CheckpointedAcc is the accumulator value a rank of Checkpointed(iters)
// must end with.
func CheckpointedAcc(iters, rank int) uint64 {
	var acc uint64
	for it := 1; it <= iters; it++ {
		acc += uint64(it) * uint64(rank+1)
	}
	return acc
}
