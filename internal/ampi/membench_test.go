package ampi_test

import (
	"testing"

	"provirt/internal/ampi"
	"provirt/internal/core"
	"provirt/internal/elf"
	"provirt/internal/lb"
	"provirt/internal/machine"
)

// benchImage carries one privatized global the rank dirties between
// snapshots, so the heap is mostly clean but never fully clean — the
// steady-state shape of a long-running rank under periodic
// load balancing or checkpointing.
func benchImage() *elf.Image {
	return elf.NewBuilder("membench").
		Global("state", 0).
		Func("main", 2048).
		MustBuild()
}

// populateHeap grows the rank's heap to 64 live 16 KiB payload blocks
// (1 MiB of words that every full-copy snapshot must move).
func populateHeap(r *ampi.Rank) {
	for i := 0; i < 64; i++ {
		if _, err := r.Ctx().Heap.Alloc(16<<10, "resident-set"); err != nil {
			panic(err)
		}
	}
}

// BenchmarkMigrateRank measures a steady-state migration round:
// serialize a mostly-clean 1 MiB heap, move the rank to the other PE,
// and restore it there. Allocation counts pin the incremental
// snapshot path against the full-copy baseline.
func BenchmarkMigrateRank(b *testing.B) {
	ctr := 0
	prog := &ampi.Program{
		Image: benchImage(),
		Main: func(r *ampi.Rank) {
			populateHeap(r)
			state := r.Ctx().Var("state")
			for i := 0; i < b.N; i++ {
				ctr++
				state.Store(uint64(ctr))
				r.Migrate()
			}
		},
	}
	w, err := ampi.NewWorld(ampi.Config{
		Machine:   machine.Config{Nodes: 2, ProcsPerNode: 1, PEsPerProc: 1},
		VPs:       1,
		Privatize: core.KindManual,
		Balancer:  lb.RotateLB{},
	}, prog)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := w.Run(); err != nil {
		b.Fatal(err)
	}
	if w.Migrations != b.N {
		b.Fatalf("completed %d migrations, want %d", w.Migrations, b.N)
	}
}

// BenchmarkCheckpoint measures a steady-state periodic checkpoint of
// the same mostly-clean rank: one dirtied privatized cell, 1 MiB of
// untouched heap payload per snapshot.
func BenchmarkCheckpoint(b *testing.B) {
	ctr := 0
	prog := &ampi.Program{
		Image: benchImage(),
		Main: func(r *ampi.Rank) {
			populateHeap(r)
			state := r.Ctx().Var("state")
			for i := 0; i < b.N; i++ {
				ctr++
				state.Store(uint64(ctr))
				r.CheckpointIfDue()
			}
		},
	}
	w, err := ampi.NewWorld(ampi.Config{
		Machine:    machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 1},
		VPs:        1,
		Privatize:  core.KindManual,
		Checkpoint: everyCall("/ckpt"),
	}, prog)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := w.Run(); err != nil {
		b.Fatal(err)
	}
	if w.Checkpoints != b.N {
		b.Fatalf("took %d checkpoints, want %d", w.Checkpoints, b.N)
	}
	if ck := w.LastCheckpoint(); b.N > 0 && (ck == nil || ck.Bytes == 0) {
		b.Fatal("no checkpoint recorded")
	}
}
