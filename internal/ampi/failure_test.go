package ampi_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"provirt/internal/ampi"
	"provirt/internal/core"
	"provirt/internal/machine"
	"provirt/internal/sim"
)

// TestNodeFailureRecovery runs the full fault-tolerance loop: a job
// checkpoints periodically, a node dies mid-run, and the job restarts
// from the last snapshot on the surviving node, finishing with the
// exact uninterrupted results.
func TestNodeFailureRecovery(t *testing.T) {
	// Long enough that the 130ms failure below lands mid-run even with
	// incremental checkpoints (only the first one pays the full write).
	const total, ckptEvery = 20, 4
	finals := make([]uint64, 4)
	periodic := &ampi.Program{
		Image: ckptImage(),
		Main: func(r *ampi.Rank) {
			ctx := r.Ctx()
			for int(ctx.Load("iter")) < total {
				it := ctx.Load("iter")
				ctx.Store("acc", ctx.Load("acc")+(it+1)*uint64(r.Rank()+1))
				ctx.Store("iter", it+1)
				r.Compute(2 * time.Millisecond)
				if int(it+1)%ckptEvery == 0 {
					r.CheckpointIfDue()
				}
			}
			r.Barrier()
			finals[r.Rank()] = ctx.Load("acc")
		},
	}

	cfg := ampi.Config{
		Machine:    machine.Config{Nodes: 2, ProcsPerNode: 1, PEsPerProc: 2},
		VPs:        4,
		Privatize:  core.KindPIEglobals,
		Checkpoint: everyCall("/scratch/ft"),
	}
	w, err := ampi.NewWorld(cfg, periodic)
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 dies mid-run, after the first checkpoint (~8ms of compute
	// per checkpoint period plus ~100ms startup).
	if err := w.ScheduleNodeFailure(1, 130*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	err = w.Run()
	if !errors.Is(err, ampi.ErrNodeFailed) {
		t.Fatalf("run ended with %v, want node failure", err)
	}
	ck := w.LastCheckpoint()
	if ck == nil {
		t.Fatal("no checkpoint survived the failure")
	}

	// Restart on the surviving single node.
	finals2 := make([]uint64, 4)
	restartProg := &ampi.Program{
		Image: ckptImage(),
		Main: func(r *ampi.Rank) {
			ctx := r.Ctx()
			for int(ctx.Load("iter")) < total {
				it := ctx.Load("iter")
				ctx.Store("acc", ctx.Load("acc")+(it+1)*uint64(r.Rank()+1))
				ctx.Store("iter", it+1)
				r.Compute(2 * time.Millisecond)
			}
			r.Barrier()
			finals2[r.Rank()] = ctx.Load("acc")
		},
	}
	w2, err := ampi.NewWorldFromCheckpoint(ampi.Config{
		Machine:   machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 2},
		VPs:       4,
		Privatize: core.KindPIEglobals,
	}, restartProg, ck)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Run(); err != nil {
		t.Fatal(err)
	}
	for vp := range finals2 {
		if finals2[vp] != expectedAcc(total, vp) {
			t.Errorf("rank %d finished with %d after recovery, want %d",
				vp, finals2[vp], expectedAcc(total, vp))
		}
	}
}

func TestScheduleNodeFailureValidation(t *testing.T) {
	w, err := ampi.NewWorld(smallConfig(1, core.KindNone), ckptProgram(1, 0, make([]uint64, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.ScheduleNodeFailure(5, 0); err == nil {
		t.Fatal("bogus node id accepted")
	}
}

// A failure whose time lands after the job completed must be a no-op: a
// finished world cannot fail retroactively.
func TestNodeFailureAfterCompletionIsNoOp(t *testing.T) {
	finals := make([]uint64, 4)
	cfg := ampi.Config{
		Machine:   machine.Config{Nodes: 2, ProcsPerNode: 1, PEsPerProc: 2},
		VPs:       4,
		Privatize: core.KindPIEglobals,
	}
	w, err := ampi.NewWorld(cfg, ckptProgram(3, 0, finals))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.ScheduleNodeFailure(1, sim.Time(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatalf("failure scheduled after completion killed the job: %v", err)
	}
	for vp := range finals {
		if finals[vp] != expectedAcc(3, vp) {
			t.Errorf("rank %d acc = %d, want %d", vp, finals[vp], expectedAcc(3, vp))
		}
	}
}

// Losing a node that hosts zero ranks still aborts the job (fail-stop:
// the runtime spans every node) — and says so, rather than claiming
// ranks were killed.
func TestNodeFailureOnEmptyNodeAborts(t *testing.T) {
	cfg := ampi.Config{
		Machine:   machine.Config{Nodes: 2, ProcsPerNode: 1, PEsPerProc: 1},
		VPs:       2,
		Privatize: core.KindPIEglobals,
		Placement: []int{0, 0}, // both ranks on node 0; node 1 is empty
	}
	w, err := ampi.NewWorld(cfg, ckptProgram(3, 0, make([]uint64, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.ScheduleNodeFailure(1, 1); err != nil {
		t.Fatal(err)
	}
	err = w.Run()
	if !errors.Is(err, ampi.ErrNodeFailed) {
		t.Fatalf("run ended with %v, want node failure", err)
	}
	if !strings.Contains(err.Error(), "no resident ranks") {
		t.Errorf("error %q does not explain the node was empty", err)
	}
	var nf *ampi.NodeFailure
	if !errors.As(err, &nf) || nf.Node != 1 || nf.Killed != 0 {
		t.Errorf("failure record = %+v, want node 1 with 0 ranks killed", nf)
	}
}
