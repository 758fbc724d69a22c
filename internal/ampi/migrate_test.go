package ampi_test

import (
	"testing"

	"provirt/internal/ampi"
	"provirt/internal/core"
	"provirt/internal/elf"
	"provirt/internal/lb"
	"provirt/internal/machine"
	"provirt/internal/sim"
	"provirt/internal/workloads/synth"
)

// migrationImage carries a tagged global so the value travels with the
// rank under every migratable method.
func migrationImage() *elf.Image {
	return elf.NewBuilder("migrator").
		TaggedGlobal("state", 0).
		Func("main", 2048).
		CodeBulk(1 << 20).
		MustBuild()
}

// TestMigrationPreservesState moves every rank to another process mid-
// run and verifies privatized globals and heap contents survive.
func TestMigrationPreservesState(t *testing.T) {
	for _, kind := range []core.Kind{core.KindManual, core.KindTLSglobals, core.KindPIEglobals} {
		t.Run(kind.String(), func(t *testing.T) {
			finalVals := make([]uint64, 4)
			heapVals := make([]uint64, 4)
			startPEs := make([]int, 4)
			endPEs := make([]int, 4)
			prog := &ampi.Program{
				Image: migrationImage(),
				Main: func(r *ampi.Rank) {
					me := uint64(r.Rank())
					r.Ctx().Store("state", me*1000+7)
					blk, err := r.Ctx().Heap.Alloc(64, "payload")
					if err != nil {
						panic(err)
					}
					*blk.Words.Word(3) = me + 500
					startPEs[r.Rank()] = r.PE().ID
					r.Migrate()
					endPEs[r.Rank()] = r.PE().ID
					finalVals[r.Rank()] = r.Ctx().Load("state")
					// Re-find the block through the (restored) heap.
					nb := r.Ctx().Heap.Lookup(blk.Addr)
					if nb == nil {
						panic("heap block lost after migration")
					}
					heapVals[r.Rank()] = nb.Words.Load(3)
				},
			}
			cfg := ampi.Config{
				Machine:   machine.Config{Nodes: 2, ProcsPerNode: 1, PEsPerProc: 2},
				VPs:       4,
				Privatize: kind,
				Balancer:  lb.RotateLB{},
			}
			w := runProgram(t, cfg, prog)
			if w.Migrations != 4 {
				t.Fatalf("completed %d migrations, want 4", w.Migrations)
			}
			for vp := 0; vp < 4; vp++ {
				if endPEs[vp] != (startPEs[vp]+1)%4 {
					t.Errorf("rank %d moved %d->%d, want next PE", vp, startPEs[vp], endPEs[vp])
				}
				if finalVals[vp] != uint64(vp)*1000+7 {
					t.Errorf("rank %d privatized state = %d after migration", vp, finalVals[vp])
				}
				if heapVals[vp] != uint64(vp)+500 {
					t.Errorf("rank %d heap word = %d after migration", vp, heapVals[vp])
				}
			}
		})
	}
}

// TestMigrationRefusedForNonMigratableMethods verifies the runtime
// fails loudly if a balancer tries to move a PIPglobals or FSglobals
// rank.
func TestMigrationRefusedForNonMigratableMethods(t *testing.T) {
	for _, kind := range []core.Kind{core.KindPIPglobals, core.KindFSglobals} {
		t.Run(kind.String(), func(t *testing.T) {
			prog := &ampi.Program{
				Image: migrationImage(),
				Main: func(r *ampi.Rank) {
					r.Migrate()
				},
			}
			cfg := ampi.Config{
				Machine:   machine.Config{Nodes: 1, ProcsPerNode: 2, PEsPerProc: 1},
				VPs:       2,
				Privatize: kind,
				Balancer:  forceRotate{},
			}
			w, err := ampi.NewWorld(cfg, prog)
			if err != nil {
				t.Fatalf("NewWorld: %v", err)
			}
			if err := w.Run(); err == nil {
				t.Fatal("expected run to fail when balancer moves a non-migratable rank")
			}
		})
	}
}

// forceRotate ignores the Migratable flag — modeling a buggy balancer —
// to prove the runtime itself enforces migratability.
type forceRotate struct{}

func (forceRotate) Name() string { return "forceRotate" }
func (forceRotate) Rebalance(loads []lb.RankLoad, numPEs int) []int {
	out := make([]int, len(loads))
	for i, l := range loads {
		out[i] = (l.PE + 1) % numPEs
	}
	return out
}

// TestRotateLBHonorsMigratability: the stock RotateLB keeps
// non-migratable ranks put, so the run succeeds without moving them.
func TestRotateLBHonorsMigratability(t *testing.T) {
	prog := &ampi.Program{
		Image: migrationImage(),
		Main:  func(r *ampi.Rank) { r.Migrate() },
	}
	cfg := ampi.Config{
		Machine:   machine.Config{Nodes: 1, ProcsPerNode: 2, PEsPerProc: 1},
		VPs:       2,
		Privatize: core.KindPIPglobals,
		Balancer:  lb.RotateLB{},
	}
	w := runProgram(t, cfg, prog)
	if w.Migrations != 0 {
		t.Fatalf("%d migrations of non-migratable ranks", w.Migrations)
	}
}

// TestPIEMigrationCarriesCodeSegment verifies PIEglobals migration
// payloads include the duplicated code and data segments while
// TLSglobals payloads do not (the Fig. 8 asymmetry).
func TestPIEMigrationCarriesCodeSegment(t *testing.T) {
	codeSize := uint64(4 << 20)
	img := elf.NewBuilder("bigcode").
		TaggedGlobal("g", 0).
		Func("main", 2048).
		CodeBulk(codeSize).
		MustBuild()
	bytesFor := func(kind core.Kind) uint64 {
		prog := &ampi.Program{Image: img, Main: func(r *ampi.Rank) { r.Migrate() }}
		cfg := ampi.Config{
			Machine:   machine.Config{Nodes: 2, ProcsPerNode: 1, PEsPerProc: 1},
			VPs:       1,
			Privatize: kind,
			Balancer:  lb.RotateLB{},
		}
		w := runProgram(t, cfg, prog)
		if w.Migrations != 1 {
			t.Fatalf("%s: %d migrations, want 1", kind, w.Migrations)
		}
		return w.MigratedBytes
	}
	tlsBytes := bytesFor(core.KindTLSglobals)
	pieBytes := bytesFor(core.KindPIEglobals)
	if pieBytes < tlsBytes+codeSize {
		t.Fatalf("PIE migration moved %d bytes, TLS %d; PIE should additionally carry the %d-byte code segment",
			pieBytes, tlsBytes, codeSize)
	}
}

// TestMigrationAcrossNodesSendRecvAfter verifies a migrated rank keeps
// communicating correctly from its new placement.
func TestMigrationAcrossNodesSendRecvAfter(t *testing.T) {
	var got float64
	prog := &ampi.Program{
		Image: migrationImage(),
		Main: func(r *ampi.Rank) {
			r.Migrate()
			if r.Rank() == 0 {
				r.Send(1, 9, []float64{3.25}, 0)
			} else if r.Rank() == 1 {
				got = r.Wait(r.Irecv(0, 9, make([]float64, 1)))[0]
			}
			r.Barrier()
		},
	}
	cfg := ampi.Config{
		Machine:   machine.Config{Nodes: 2, ProcsPerNode: 2, PEsPerProc: 1},
		VPs:       2,
		Privatize: core.KindPIEglobals,
		Balancer:  lb.RotateLB{},
	}
	w := runProgram(t, cfg, prog)
	if got != 3.25 {
		t.Fatalf("post-migration recv got %v", got)
	}
	if w.Migrations != 2 {
		t.Fatalf("%d migrations, want 2", w.Migrations)
	}
}

// TestGreedyRefineLBBalancesLoad checks that an imbalanced
// compute-bound run under GreedyRefineLB moves work off the hot PEs.
func TestGreedyRefineLBBalancesLoad(t *testing.T) {
	// 8 ranks all start on PE 0's half; rank loads are skewed.
	loads := []int64{8, 1, 1, 1, 8, 1, 1, 1}
	perRank := make([]sim.Time, len(loads))
	for i, l := range loads {
		perRank[i] = sim.Time(l) * 1e6
	}
	prog := &ampi.Program{
		Image: synth.EmptyImage(),
		Main: func(r *ampi.Rank) {
			r.Compute(perRank[r.Rank()])
			r.Migrate()
			r.Compute(perRank[r.Rank()])
			r.Barrier()
		},
	}
	cfg := ampi.Config{
		Machine:   machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 4},
		VPs:       8,
		Privatize: core.KindPIEglobals,
		Balancer:  lb.GreedyRefineLB{},
	}
	w := runProgram(t, cfg, prog)
	if w.Migrations == 0 {
		t.Fatal("GreedyRefineLB performed no migrations on a skewed load")
	}
	// After balancing, the two heavy ranks (0 and 4) must not share a
	// PE.
	if w.Ranks[0].PE() == w.Ranks[4].PE() {
		t.Error("heavy ranks still share a PE after GreedyRefineLB")
	}
}
