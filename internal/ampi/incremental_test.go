package ampi_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"provirt/internal/ampi"
	"provirt/internal/core"
	"provirt/internal/lb"
	"provirt/internal/machine"
	"provirt/internal/mem"
	"provirt/internal/obs"
	"provirt/internal/workloads/adcirc"
)

// TestMigrationMovesOnlyDirtyBytes: a rank migrated every load-balance
// round pays the full payload once; later rounds transfer only the
// blocks written since the previous serialization, while the logical
// payload size stays constant.
func TestMigrationMovesOnlyDirtyBytes(t *testing.T) {
	var w *ampi.World
	var records []ampi.MigrationRecord
	const rounds = 4
	prog := &ampi.Program{
		Image: migrationImage(),
		Main: func(r *ampi.Rank) {
			ctx := r.Ctx()
			if _, err := ctx.Heap.Alloc(256<<10, "cold-data"); err != nil {
				panic(err)
			}
			state := ctx.Var("state")
			for i := 0; i < rounds; i++ {
				state.Store(uint64(i + 1))
				r.Migrate()
				records = append(records, w.LastMigrations()...)
			}
		},
	}
	var err error
	w, err = ampi.NewWorld(ampi.Config{
		Machine:   machine.Config{Nodes: 2, ProcsPerNode: 1, PEsPerProc: 1},
		VPs:       1,
		Privatize: core.KindManual,
		Balancer:  lb.RotateLB{},
	}, prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if len(records) != rounds {
		t.Fatalf("recorded %d migrations, want %d", len(records), rounds)
	}
	first := records[0]
	if first.DeltaBytes != first.Bytes {
		t.Fatalf("first migration delta %d, want full payload %d", first.DeltaBytes, first.Bytes)
	}
	for i, rec := range records[1:] {
		if rec.Bytes != first.Bytes {
			t.Errorf("round %d logical payload %d, want %d", i+1, rec.Bytes, first.Bytes)
		}
		if rec.DeltaBytes >= rec.Bytes/2 {
			t.Errorf("round %d transferred %d of %d bytes: steady-state migration is not incremental",
				i+1, rec.DeltaBytes, rec.Bytes)
		}
	}
	if w.MigratedDeltaBytes >= w.MigratedBytes {
		t.Fatalf("world totals: delta %d >= full %d", w.MigratedDeltaBytes, w.MigratedBytes)
	}
}

// TestMigrationHandsTheRankOff: a balancer step moves a rank without
// copying it. The migrated rank holds the same heap, the same blocks and
// the same TLS block as before, a handle taken before the move stores
// into that block, and nothing went through the snapshot arena, though
// the hand-off counts as a snapshot.
func TestMigrationHandsTheRankOff(t *testing.T) {
	reg := obs.NewRegistry()
	mem.EnableObs(reg)
	defer mem.EnableObs(nil)
	var heaps [2]*mem.Heap
	var blocks [2]*mem.Block
	var tls [2]*mem.Segment
	var pes [2]int
	prog := &ampi.Program{
		Image: migrationImage(),
		Main: func(r *ampi.Rank) {
			ctx := r.Ctx()
			state := ctx.Var("state")
			state.Store(5)
			blk, err := ctx.Heap.Alloc(4096, "data")
			if err != nil {
				panic(err)
			}
			heaps[0], blocks[0], tls[0], pes[0] = ctx.Heap, blk, ctx.TLS, r.PE().ID
			r.Migrate()
			state.Store(6)
			heaps[1], blocks[1], tls[1], pes[1] = ctx.Heap, ctx.Heap.Lookup(blk.Addr), ctx.TLS, r.PE().ID
		},
	}
	w := runProgram(t, ampi.Config{
		Machine:   machine.Config{Nodes: 2, ProcsPerNode: 1, PEsPerProc: 1},
		VPs:       1,
		Privatize: core.KindTLSglobals,
		Balancer:  lb.RotateLB{},
	}, prog)
	if w.Migrations != 1 || pes[0] == pes[1] {
		t.Fatalf("%d migrations, PE %d -> %d: want one move", w.Migrations, pes[0], pes[1])
	}
	if heaps[0] != heaps[1] || blocks[0] != blocks[1] {
		t.Fatal("the migrated rank holds a new heap or block instead of its own")
	}
	if tls[0].Len() != 1 || tls[0] != tls[1] || tls[0].Load(0) != 6 {
		t.Fatalf("the migrated rank's TLS block is not the one it held, or missed the store of 6")
	}
	var text bytes.Buffer
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"mem_snapshot_arena_bytes_total 0", "mem_snapshots_total 1"} {
		if !strings.Contains(text.String(), want+"\n") {
			t.Errorf("metrics lack %q:\n%s", want, text.String())
		}
	}
}

// TestPIERankSnapshotMovesOnlyRelocatedGranules: an ADCIRC PIEglobals
// rank's data segment is a copy-on-write view of the image's, and the
// words its relocations write — the GOT, 220 words — span four 512 B
// granules. The rank's first checkpoint copies exactly those granules
// through the snapshot arena, while the snapshot still models the whole
// 2 MiB segment.
func TestPIERankSnapshotMovesOnlyRelocatedGranules(t *testing.T) {
	reg := obs.NewRegistry()
	mem.EnableObs(reg)
	defer mem.EnableObs(nil)
	img := adcirc.Image()
	w := runProgram(t, ampi.Config{
		Machine:    machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 1},
		VPs:        1,
		Privatize:  core.KindPIEglobals,
		Checkpoint: everyCall("/ckpt"),
	}, &ampi.Program{Image: img, Main: func(r *ampi.Rank) { r.CheckpointIfDue() }})
	snap := w.LastCheckpoint().Payloads[0].Heap
	var seg *mem.Block
	for i := range snap.Blocks {
		if snap.Blocks[i].Label == "pie-data-segment" {
			seg = &snap.Blocks[i]
		}
	}
	if seg == nil || seg.Words == nil || seg.Size != img.DataSize || img.DataSize != 2<<20 {
		t.Fatalf("snapshot's data segment block %+v, want a 2 MiB segment view", seg)
	}
	var text bytes.Buffer
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"mem_snapshot_arena_bytes_total 2048",
		"mem_snapshot_blocks_copied_total 1",
		fmt.Sprintf("mem_snapshot_full_bytes_total %d", snap.Bytes()),
	} {
		if !strings.Contains(text.String(), want+"\n") {
			t.Errorf("metrics lack %q:\n%s", want, text.String())
		}
	}
}

// TestCheckpointWritesOnlyDirtyBytes: the first checkpoint writes the
// whole payload to the filesystem; the next one writes only what
// changed, while reporting the same logical snapshot size.
func TestCheckpointWritesOnlyDirtyBytes(t *testing.T) {
	var w *ampi.World
	var cks []*ampi.Checkpoint
	prog := &ampi.Program{
		Image: migrationImage(),
		Main: func(r *ampi.Rank) {
			ctx := r.Ctx()
			if _, err := ctx.Heap.Alloc(256<<10, "cold-data"); err != nil {
				panic(err)
			}
			state := ctx.Var("state")
			for i := 0; i < 2; i++ {
				state.Store(uint64(i + 1))
				r.CheckpointIfDue()
				cks = append(cks, w.LastCheckpoint())
			}
		},
	}
	var err error
	w, err = ampi.NewWorld(ampi.Config{
		Machine:    machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 1},
		VPs:        1,
		Privatize:  core.KindManual,
		Checkpoint: everyCall("/ckpt"),
	}, prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if len(cks) != 2 {
		t.Fatalf("took %d checkpoints, want 2", len(cks))
	}
	if cks[0].DeltaBytes != cks[0].Bytes {
		t.Fatalf("first checkpoint wrote %d, want full %d", cks[0].DeltaBytes, cks[0].Bytes)
	}
	if cks[1].Bytes != cks[0].Bytes {
		t.Errorf("second checkpoint logical size %d, want %d", cks[1].Bytes, cks[0].Bytes)
	}
	if cks[1].DeltaBytes >= cks[1].Bytes/2 {
		t.Fatalf("second checkpoint wrote %d of %d bytes: not incremental", cks[1].DeltaBytes, cks[1].Bytes)
	}
}

// TestCheckpointImmutableAfterMigration guards the sharpest aliasing
// hazard in the incremental path: a checkpoint taken after a migration
// (which handed the live heap over without copying it) must stay intact
// while the rank keeps writing and even migrates again. Restarting from
// it must see the checkpoint-time values, not the later ones.
func TestCheckpointImmutableAfterMigration(t *testing.T) {
	var blkAddr uint64
	var restoredState, restoredWord uint64
	prog := &ampi.Program{
		Image: migrationImage(),
		Main: func(r *ampi.Rank) {
			ctx := r.Ctx()
			state := ctx.Var("state")
			if v := state.Load(); v != 0 {
				// Restart path: record what the checkpoint preserved.
				restoredState = v
				restoredWord = ctx.Heap.Lookup(blkAddr).Words.Load(0)
				return
			}
			blk, err := ctx.Heap.Alloc(4096, "data")
			if err != nil {
				panic(err)
			}
			blkAddr = blk.Addr
			*blk.Words.Word(0) = 77
			blk.Touch()
			r.Migrate() // the rank keeps its live heap
			state.Store(5)
			r.CheckpointIfDue()
			// Keep mutating after the checkpoint, then migrate again: none
			// of this may leak into the kept snapshot.
			state.Store(9)
			nb := ctx.Heap.Lookup(blkAddr)
			*nb.Words.Word(0) = 88
			nb.Touch()
			r.Migrate()
		},
	}
	cfg := ampi.Config{
		Machine:    machine.Config{Nodes: 2, ProcsPerNode: 1, PEsPerProc: 1},
		VPs:        1,
		Privatize:  core.KindPIEglobals,
		Balancer:   lb.RotateLB{},
		Checkpoint: everyCall("/ckpt"),
	}
	w := runProgram(t, cfg, prog)
	if w.Migrations != 2 {
		t.Fatalf("completed %d migrations, want 2", w.Migrations)
	}
	ck := w.LastCheckpoint()
	if ck == nil {
		t.Fatal("no checkpoint taken")
	}
	w2, err := ampi.NewWorldFromCheckpoint(cfg, prog, ck)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Run(); err != nil {
		t.Fatal(err)
	}
	if restoredState != 5 {
		t.Errorf("restarted state = %d, want the checkpoint-time 5", restoredState)
	}
	if restoredWord != 77 {
		t.Errorf("restarted heap word = %d, want the checkpoint-time 77", restoredWord)
	}
}
