package ampi_test

import (
	"strings"
	"testing"

	"provirt/internal/ampi"
	"provirt/internal/core"
	"provirt/internal/elf"
	"provirt/internal/machine"
)

// ckptImage tracks progress in a privatized global so a restarted run
// can skip completed work (hot-start style).
func ckptImage() *elf.Image {
	return elf.NewBuilder("ckptapp").
		TaggedGlobal("iter", 0).
		TaggedGlobal("acc", 0).
		Func("main", 1024).
		CodeBulk(1 << 20).
		MustBuild()
}

// everyCall is a policy under which every CheckpointIfDue that follows
// any virtual time snapshots to dir on the shared filesystem.
func everyCall(dir string) *ampi.CheckpointPolicy {
	return &ampi.CheckpointPolicy{Target: ampi.TargetFS, Dir: dir, Interval: 1}
}

// ckptProgram runs `total` iterations, checkpointing at `at` under an
// everyCall("/scratch/ckpt") policy; on restart it resumes from the
// restored iteration counter.
func ckptProgram(total, at int, finals []uint64) *ampi.Program {
	return &ampi.Program{
		Image: ckptImage(),
		Main: func(r *ampi.Rank) {
			ctx := r.Ctx()
			for int(ctx.Load("iter")) < total {
				it := ctx.Load("iter")
				ctx.Store("acc", ctx.Load("acc")+(it+1)*uint64(r.Rank()+1))
				ctx.Store("iter", it+1)
				if int(it+1) == at {
					r.CheckpointIfDue()
				}
			}
			r.Barrier()
			finals[r.Rank()] = ctx.Load("acc")
		},
	}
}

func expectedAcc(total, rank int) uint64 {
	var acc uint64
	for it := 1; it <= total; it++ {
		acc += uint64(it) * uint64(rank+1)
	}
	return acc
}

func TestCheckpointWritesSnapshot(t *testing.T) {
	finals := make([]uint64, 4)
	prog := ckptProgram(6, 3, finals)
	cfg := ampi.Config{
		Machine:    machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 2},
		VPs:        4,
		Privatize:  core.KindPIEglobals,
		Checkpoint: everyCall("/scratch/ckpt"),
	}
	w := runProgram(t, cfg, prog)
	ck := w.LastCheckpoint()
	if ck == nil {
		t.Fatal("no checkpoint recorded")
	}
	if len(ck.Payloads) != 4 || ck.VPs != 4 {
		t.Fatalf("checkpoint has %d payloads", len(ck.Payloads))
	}
	if ck.Bytes == 0 || ck.Taken == 0 {
		t.Fatal("checkpoint charged no bytes or time")
	}
	// PIE checkpoints include the code segments.
	if ck.Bytes < 4*(1<<20) {
		t.Errorf("checkpoint bytes %d suspiciously small for 4 PIE ranks", ck.Bytes)
	}
	// Files are durable on the shared FS.
	if !w.Cluster.FS.Exists("/scratch/ckpt/rank-0.ckpt") {
		t.Error("checkpoint file missing from shared FS")
	}
	for vp, acc := range finals {
		if acc != expectedAcc(6, vp) {
			t.Errorf("rank %d acc %d, want %d", vp, acc, expectedAcc(6, vp))
		}
	}
}

func TestRestartResumesFromCheckpoint(t *testing.T) {
	// Phase 1: run to completion, checkpointing at iteration 3.
	finals1 := make([]uint64, 4)
	cfg := ampi.Config{
		Machine:    machine.Config{Nodes: 2, ProcsPerNode: 1, PEsPerProc: 2},
		VPs:        4,
		Privatize:  core.KindPIEglobals,
		Checkpoint: everyCall("/scratch/ckpt"),
	}
	w1 := runProgram(t, cfg, ckptProgram(6, 3, finals1))
	ck := w1.LastCheckpoint()

	// Phase 2: "node failure" — restart from the snapshot on a SMALLER
	// machine. The program must resume at iteration 3, not 0: the
	// accumulators only come out right if iterations 1-3 are skipped
	// (re-running them would double-count).
	finals2 := make([]uint64, 4)
	cfg2 := ampi.Config{
		Machine:   machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 2},
		VPs:       4,
		Privatize: core.KindPIEglobals,
	}
	w2, err := ampi.NewWorldFromCheckpoint(cfg2, ckptProgram(6, 0, finals2), ck)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Run(); err != nil {
		t.Fatal(err)
	}
	for vp := range finals2 {
		if finals2[vp] != expectedAcc(6, vp) {
			t.Errorf("restarted rank %d acc %d, want %d (did it resume from iter 3?)",
				vp, finals2[vp], expectedAcc(6, vp))
		}
	}
	// Restart charges filesystem read time.
	if w2.SetupDone == 0 {
		t.Error("restart skipped setup")
	}
}

func TestCheckpointRefusedForNonMigratableMethods(t *testing.T) {
	for _, kind := range []core.Kind{core.KindPIPglobals, core.KindFSglobals} {
		t.Run(kind.String(), func(t *testing.T) {
			prog := &ampi.Program{
				Image: ckptImage(),
				Main:  func(r *ampi.Rank) { r.CheckpointIfDue() },
			}
			cfg := ampi.Config{
				Machine:    machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 1},
				VPs:        2,
				Privatize:  kind,
				Checkpoint: everyCall("/scratch/x"),
			}
			w, err := ampi.NewWorld(cfg, prog)
			if err != nil {
				t.Fatal(err)
			}
			err = w.Run()
			if err == nil || !strings.Contains(err.Error(), "checkpoint/restart is unavailable") {
				t.Fatalf("expected checkpoint refusal, got %v", err)
			}
		})
	}
}

func TestRestartValidation(t *testing.T) {
	if _, err := ampi.NewWorldFromCheckpoint(ampi.Config{}, nil, nil); err == nil {
		t.Fatal("nil checkpoint accepted")
	}
	ck := &ampi.Checkpoint{VPs: 4}
	cfg := ampi.Config{
		Machine:   machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 1},
		VPs:       8,
		Privatize: core.KindPIEglobals,
	}
	prog := ckptProgram(1, 0, make([]uint64, 8))
	if _, err := ampi.NewWorldFromCheckpoint(cfg, prog, ck); err == nil {
		t.Fatal("rank-count mismatch accepted")
	}
}

// Restart validation must reject snapshots that cannot possibly restore
// correctly, each with an error naming the actual problem.
func TestRestartValidationRejectsBadSnapshots(t *testing.T) {
	cfg := ampi.Config{
		Machine:   machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 2},
		VPs:       2,
		Privatize: core.KindPIEglobals,
	}
	prog := func() *ampi.Program { return ckptProgram(1, 0, make([]uint64, 2)) }

	t.Run("incomplete payloads", func(t *testing.T) {
		// Right rank count, but the per-rank payloads are missing — a
		// snapshot that was never fully gathered.
		ck := &ampi.Checkpoint{VPs: 2, Method: core.KindPIEglobals}
		_, err := ampi.NewWorldFromCheckpoint(cfg, prog(), ck)
		if err == nil || !strings.Contains(err.Error(), "snapshot is incomplete") {
			t.Fatalf("incomplete snapshot: got %v", err)
		}
	})
	t.Run("method mismatch", func(t *testing.T) {
		// A real snapshot taken under PIEglobals must not restore into a
		// TLSglobals world: the serialized state encodes the method's
		// layout.
		finals := make([]uint64, 4)
		w := runProgram(t, ampi.Config{
			Machine:    machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 2},
			VPs:        4,
			Privatize:  core.KindPIEglobals,
			Checkpoint: everyCall("/scratch/ckpt"),
		}, ckptProgram(6, 3, finals))
		ck := w.LastCheckpoint()
		if ck == nil {
			t.Fatal("no checkpoint taken")
		}
		bad := ampi.Config{
			Machine:   machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 2},
			VPs:       4,
			Privatize: core.KindTLSglobals,
		}
		_, err := ampi.NewWorldFromCheckpoint(bad, ckptProgram(6, 0, make([]uint64, 4)), ck)
		if err == nil || !strings.Contains(err.Error(), "not portable across methods") {
			t.Fatalf("method mismatch: got %v", err)
		}
	})
	t.Run("non-migratable method", func(t *testing.T) {
		// Even a self-consistent snapshot cannot restart under a method
		// without migratable rank state.
		ck := &ampi.Checkpoint{
			VPs:      2,
			Method:   core.KindPIPglobals,
			Payloads: make([]*core.MigrationPayload, 2),
		}
		bad := cfg
		bad.Privatize = core.KindPIPglobals
		_, err := ampi.NewWorldFromCheckpoint(bad, prog(), ck)
		if err == nil || !strings.Contains(err.Error(), "does not support migratable rank state") {
			t.Fatalf("non-migratable method: got %v", err)
		}
	})
}
