// Cloud stop/restart: the elasticity scenario from the paper's
// introduction — "What happens if the price of compute resources
// changes during a run — can the job be stopped and restarted from
// that point later on?"
//
// A 16-rank iterative solve checkpoints to the shared filesystem part
// way through. The job is then "interrupted" (spot price spike) and
// restarted from the snapshot on HALF the cores — possible because
// rank state serializes placement-independently through Isomalloc, and
// 16 virtual ranks run as happily on 4 PEs as on 8. Each rank resumes
// from its restored iteration counter; the final answer matches an
// uninterrupted run exactly. The restarted phase's world is built from
// a scenario.Spec's Config and the snapshot.
//
// Phase 3 replays the same story hands-free: the elastic supervisor
// (ft.RunElastic) receives the reclaim as a churn event with a notice
// window, drains the job through a checkpoint at the next consistency
// point, shrinks the machine onto the surviving node, and restarts
// from the snapshot — zero rework, node-hours accounted.
//
// Run with: go run ./examples/cloudrestart [-quick]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"provirt/internal/ampi"
	"provirt/internal/core"
	"provirt/internal/elf"
	"provirt/internal/ft"
	"provirt/internal/machine"
	"provirt/internal/scenario"
	"provirt/internal/sim"
	"provirt/internal/trace"
)

const vps = 16

func image() *elf.Image {
	return elf.NewBuilder("cloudsolver").
		TaggedGlobal("iter", 0).
		TaggedGlobal("local_sum", 0).
		Func("main", 4096).
		CodeBulk(2 << 20).
		MustBuild()
}

// program iterates, accumulating into privatized state; interrupt=true
// stops the job right after the checkpoint (the price spike).
func program(interrupt bool, totalIters, ckptAt int, finals []uint64) *ampi.Program {
	return &ampi.Program{
		Image: image(),
		Main: func(r *ampi.Rank) {
			ctx := r.Ctx()
			for int(ctx.Load("iter")) < totalIters {
				it := ctx.Load("iter")
				ctx.Store("local_sum", ctx.Load("local_sum")+(it+1)*uint64(r.Rank()+1))
				ctx.Store("iter", it+1)
				r.Compute(50_000) // 50us of work per iteration
				if int(it+1) == ckptAt {
					r.Checkpoint("/scratch/cloud")
					if interrupt {
						return // the job is torn down here
					}
				}
			}
			r.Barrier()
			finals[r.Rank()] = ctx.Load("local_sum")
		},
	}
}

// elasticProgram is the same solve written for supervision: it offers
// the runtime a checkpoint at every iteration boundary
// (CheckpointIfDue — a no-op until a policy arms it), which is also
// what lets the elastic supervisor drain the job on demand.
func elasticProgram(totalIters int, finals []uint64) *ampi.Program {
	return &ampi.Program{
		Image: image(),
		Main: func(r *ampi.Rank) {
			ctx := r.Ctx()
			for int(ctx.Load("iter")) < totalIters {
				it := ctx.Load("iter")
				ctx.Store("local_sum", ctx.Load("local_sum")+(it+1)*uint64(r.Rank()+1))
				ctx.Store("iter", it+1)
				r.Compute(50_000)
				r.CheckpointIfDue()
			}
			r.Barrier()
			finals[r.Rank()] = ctx.Load("local_sum")
		},
	}
}

func expected(rank, totalIters int) uint64 {
	var sum uint64
	for it := 1; it <= totalIters; it++ {
		sum += uint64(it) * uint64(rank+1)
	}
	return sum
}

func main() {
	quick := flag.Bool("quick", false, "reduced iteration count (smoke runs)")
	flag.Parse()
	totalIters, ckptAt := 24, 10
	if *quick {
		totalIters, ckptAt = 8, 4
	}

	// Phase 1: 8 PEs, interrupted at the checkpoint.
	fmt.Printf("phase 1: %d ranks on 8 PEs, checkpoint at iteration %d/%d, then interrupted\n",
		vps, ckptAt, totalIters)
	sp1 := scenario.Spec{
		Machine: machine.Config{Nodes: 2, ProcsPerNode: 1, PEsPerProc: 4},
		VPs:     vps,
		Method:  core.KindPIEglobals,
		Program: program(true, totalIters, ckptAt, make([]uint64, vps)),
	}
	// The snapshot lives in the world, so this phase builds and runs it
	// by hand rather than through Execute, which keeps only a row.
	b1, err := sp1.Build()
	if err == nil {
		err = b1.World.Run()
	}
	if err != nil {
		log.Fatalf("cloudrestart: %v", err)
	}
	ck := b1.World.LastCheckpoint()
	if ck == nil {
		log.Fatal("cloudrestart: no checkpoint taken")
	}
	fmt.Printf("  snapshot: %s across %d rank files, durable at t=%s\n",
		trace.FormatBytes(int64(ck.Bytes)), ck.VPs, trace.FormatDuration(ck.Taken))

	// Phase 2: prices dropped on a smaller instance type — restart on
	// 4 PEs.
	fmt.Printf("phase 2: restart from the snapshot on 4 PEs (half the cores)\n")
	finals := make([]uint64, vps)
	sp2 := scenario.Spec{
		Machine: machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 4},
		VPs:     vps,
		Method:  core.KindPIEglobals,
	}
	cfg2, err := sp2.Config()
	var w2 *ampi.World
	if err == nil {
		w2, err = ampi.NewWorldFromCheckpoint(cfg2, program(false, totalIters, ckptAt, finals), ck)
	}
	if err == nil {
		err = w2.Run()
	}
	if err != nil {
		log.Fatalf("cloudrestart: %v", err)
	}
	for vp, got := range finals {
		if got != expected(vp, totalIters) {
			log.Fatalf("cloudrestart: rank %d finished with %d, want %d — lost work!", vp, got, expected(vp, totalIters))
		}
	}
	fmt.Printf("  all %d ranks resumed at iteration %d and finished with the exact\n", vps, ckptAt)
	fmt.Printf("  uninterrupted answers (restart read %s back through the shared FS).\n",
		trace.FormatBytes(int64(ck.Bytes)))
	fmt.Printf("  restarted job: startup %s, execution %s\n",
		trace.FormatDuration(w2.SetupDone), trace.FormatDuration(w2.ExecutionTime()))

	// Phase 3: the same reclaim, handled by the elastic supervisor.
	// The spot market gives node 1 a generous notice; the supervisor
	// drains the job through a checkpoint, shrinks onto node 0's PEs,
	// and restarts from the snapshot — no hand-written phases.
	fmt.Printf("phase 3: supervised elastic run — node 1 reclaimed with notice, supervisor drains and shrinks\n")
	sp3 := scenario.Spec{
		Machine: machine.Config{Nodes: 2, ProcsPerNode: 1, PEsPerProc: 4},
		VPs:     vps,
		Method:  core.KindPIEglobals,
	}
	cfg3, err := sp3.Config()
	if err != nil {
		log.Fatalf("cloudrestart: %v", err)
	}
	cfg3.Checkpoint = &ampi.CheckpointPolicy{
		Target:   ampi.TargetFS,
		Dir:      "/scratch/cloud-elastic",
		Interval: 200 * sim.Time(time.Microsecond),
	}
	finals3 := make([]uint64, vps)
	rep, err := ft.RunElastic(ft.ElasticJob{
		Config:  cfg3,
		Program: func() *ampi.Program { return elasticProgram(totalIters, finals3) },
		Churn: ft.ChurnPlan{Events: []ft.ChurnEvent{{
			Kind:   ft.Eviction,
			At:     sim.Time(500 * time.Microsecond),
			Node:   1,
			Notice: sim.Time(250 * time.Millisecond),
		}}},
		Recovery: ft.Shrink,
	})
	if err != nil {
		log.Fatalf("cloudrestart: elastic: %v", err)
	}
	for vp, got := range finals3 {
		if got != expected(vp, totalIters) {
			log.Fatalf("cloudrestart: elastic rank %d finished with %d, want %d — lost work!", vp, got, expected(vp, totalIters))
		}
	}
	for _, rz := range rep.Resizes {
		fmt.Printf("  epoch: %s at t=%s -> %d node(s), drained=%v, rework=%s\n",
			rz.Kind, trace.FormatDuration(rz.At), rz.Nodes, rz.Drained, trace.FormatDuration(rz.Rework))
	}
	fmt.Printf("  answers again exact across %d attempt(s); time-to-solution %s, %s node-hours\n",
		rep.Attempts, trace.FormatDuration(rep.TotalTime), machine.FormatNodeHours(rep.NodeSeconds))
}
