package ampi_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"provirt/internal/ampi"
	"provirt/internal/elf"
	"provirt/internal/machine"
	"provirt/internal/sim"
	"provirt/internal/trace"
)

func flatImage() *elf.Image {
	return elf.NewBuilder("flatapp").
		TaggedGlobal("iter", 0).
		Const("table_len", 64).
		Func("main", 4096).
		CodeBulk(1 << 20).
		DataBulk(64 << 10).
		RODataBulk(48 << 10).
		MustBuild()
}

func laptop() machine.Config {
	return machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 8}
}

func newFlat(t *testing.T, vps int, tr trace.Tracer) *ampi.FlatWorld {
	t.Helper()
	w, err := ampi.NewFlatWorld(ampi.FlatConfig{
		Machine: laptop(),
		VPs:     vps,
		Image:   flatImage(),
		Tracer:  tr,
	})
	if err != nil {
		t.Fatalf("NewFlatWorld: %v", err)
	}
	return w
}

// TestFlatWorldAllreduce checks the flat path completes, advances the
// clock past setup, and models exactly one arrival per tree edge per
// wave.
func TestFlatWorldAllreduce(t *testing.T) {
	const vps = 4096
	w := newFlat(t, vps, nil)
	if w.PerRankBytes == 0 {
		t.Fatal("per-rank footprint not measured")
	}
	if w.SharedBytesPerRank == 0 {
		t.Fatal("shared-mapping bytes not measured (code sharing + RO COW should be on)")
	}
	done, err := w.Allreduce(8)
	if err != nil {
		t.Fatal(err)
	}
	if done <= w.SetupDone {
		t.Fatalf("allreduce finished at %v, not after setup %v", done, w.SetupDone)
	}
	if got, want := w.EventsFired(), uint64(2*(vps-1)); got != want {
		t.Fatalf("allreduce modelled %d arrivals, want %d (one per tree edge per wave)", got, want)
	}
}

// TestFlatWorldDispatchCounts pins the engine's share of the modelled
// arrivals: only edges between lookahead domains (here, PEs) are
// dispatched — 65536 ranks in 8 blocks of 8192, each block a subtree,
// so seven edges per wave leave a PE — and a one-domain world
// dispatches nothing. TestFlatWorldMillion has the count when blocks
// cut across subtrees.
func TestFlatWorldDispatchCounts(t *testing.T) {
	for _, tc := range []struct {
		mc   machine.Config
		vps  int
		want uint64
	}{
		{laptop(), 65536, 14},
		{machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 1}, 65536, 0},
	} {
		w, err := ampi.NewFlatWorld(ampi.FlatConfig{Machine: tc.mc, VPs: tc.vps, Image: flatImage()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Allreduce(8); err != nil {
			t.Fatal(err)
		}
		if got, want := w.EventsFired(), uint64(2*(tc.vps-1)); got != want {
			t.Fatalf("%d PEs: modelled %d arrivals, want %d", tc.mc.PEsPerProc, got, want)
		}
		if got := w.Dispatches(); got != tc.want {
			t.Fatalf("%d PEs: dispatched %d engine events, want %d", tc.mc.PEsPerProc, got, tc.want)
		}
	}
}

// TestFlatWorldAllocs bounds what the flat path asks of the allocator:
// a warm allreduce allocates nothing per edge (the Run predicate
// closure is all there is), and a storm reserves its movers' engine
// nodes as one slab instead of allocating one per mover.
func TestFlatWorldAllocs(t *testing.T) {
	w := newFlat(t, 65536, nil)
	if _, err := w.Allreduce(8); err != nil {
		t.Fatal(err)
	}
	perAllreduce := testing.AllocsPerRun(5, func() {
		if _, err := w.Allreduce(8); err != nil {
			t.Fatal(err)
		}
	})
	if perAllreduce > 4 {
		t.Fatalf("warm allreduce made %v allocations, want <= 4", perAllreduce)
	}
	total := testing.AllocsPerRun(1, func() {
		w := newFlat(t, 65536, nil)
		if _, err := w.Allreduce(8); err != nil {
			t.Fatal(err)
		}
		if _, err := w.MigrationStorm(8); err != nil {
			t.Fatal(err)
		}
	})
	if total >= 400 {
		t.Fatalf("build + allreduce + storm at 65536 VPs made %v allocations, want < 400", total)
	}
}

// TestFlatWorldPhaseSequence runs every phase after every other on one
// world. Each starts at the world clock, so each finishes no earlier
// than the one before.
func TestFlatWorldPhaseSequence(t *testing.T) {
	for _, mc := range []machine.Config{laptop(), {Nodes: 4, ProcsPerNode: 2, PEsPerProc: 2}} {
		w, err := ampi.NewFlatWorld(ampi.FlatConfig{Machine: mc, VPs: 4096, Image: flatImage()})
		if err != nil {
			t.Fatal(err)
		}
		allreduce := func() (sim.Time, error) { return w.Allreduce(8) }
		phases := []struct {
			name string
			run  func() (sim.Time, error)
		}{
			{"allreduce", allreduce},
			{"allreduce", allreduce},
			{"storm", func() (sim.Time, error) { return w.MigrationStorm(4) }},
			{"allreduce", allreduce},
			{"storm", func() (sim.Time, error) { return w.MigrationStorm(3) }},
			{"allreduce", allreduce},
		}
		last := w.SetupDone
		for i, ph := range phases {
			done, err := ph.run()
			if err != nil {
				t.Fatalf("%d nodes: phase %d (%s): %v", mc.Nodes, i, ph.name, err)
			}
			if done < last || done != w.Time() {
				t.Fatalf("%d nodes: phase %d (%s) finished at %v (world %v), before the previous phase's %v",
					mc.Nodes, i, ph.name, done, w.Time(), last)
			}
			last = done
		}
	}
}

// TestFlatWorldDeterministic pins the flat model's virtual-time results:
// identical configs give identical times, traced or not.
func TestFlatWorldDeterministic(t *testing.T) {
	run := func(tr trace.Tracer) (sim.Time, sim.Time) {
		w := newFlat(t, 2048, tr)
		ar, err := w.Allreduce(8)
		if err != nil {
			t.Fatal(err)
		}
		st, err := w.MigrationStorm(4)
		if err != nil {
			t.Fatal(err)
		}
		return ar, st
	}
	ar1, st1 := run(nil)
	rec := trace.NewRecorder(append(trace.DefaultKinds(), trace.KindEngineEvent)...)
	ar2, st2 := run(rec)
	if ar1 != ar2 || st1 != st2 {
		t.Fatalf("traced run diverged: allreduce %v vs %v, storm %v vs %v", ar1, ar2, st1, st2)
	}
	if rec.Len() == 0 {
		t.Fatal("traced run recorded nothing")
	}
	ar3, st3 := run(nil)
	if ar1 != ar3 || st1 != st3 {
		t.Fatalf("repeat run diverged: allreduce %v vs %v, storm %v vs %v", ar1, ar3, st1, st3)
	}
}

// TestFlatWorldMillion is the tentpole acceptance check: a
// 1,000,000-VP allreduce world builds and completes on one machine,
// followed by a migration storm over an eighth of the ranks.
func TestFlatWorldMillion(t *testing.T) {
	if testing.Short() {
		t.Skip("million-rank world in -short mode")
	}
	const vps = 1_000_000
	w := newFlat(t, vps, nil)
	if _, err := w.Allreduce(8); err != nil {
		t.Fatal(err)
	}
	if got, want := w.EventsFired(), uint64(2*(vps-1)); got != want {
		t.Fatalf("allreduce modelled %d arrivals, want %d", got, want)
	}
	// A million is not a power of two, so the eight blocks cut across
	// subtrees: 56 edges per wave leave a PE.
	if got := w.Dispatches(); got != 112 {
		t.Fatalf("allreduce dispatched %d engine events, want 112", got)
	}
	if _, err := w.MigrationStorm(8); err != nil {
		t.Fatal(err)
	}
	if w.Migrations == 0 || w.MigratedBytes == 0 {
		t.Fatalf("storm moved nothing: %d migrations, %d bytes", w.Migrations, w.MigratedBytes)
	}
}

// flatRun captures everything a flat run produces that the digests
// below pin.
type flatRun struct {
	allreduce, storm sim.Time
	events           uint64
	migrations       int
	migratedBytes    uint64
	traceJSONL       string
}

// runFlatAt runs allreduce + storm on the given machine shape,
// recording every trace kind (engine dispatch included) and exporting
// it to canonical JSONL bytes.
func runFlatAt(t *testing.T, mc machine.Config, vps int) flatRun {
	t.Helper()
	rec := trace.NewRecorder(append(trace.DefaultKinds(), trace.KindEngineEvent)...)
	w, err := ampi.NewFlatWorld(ampi.FlatConfig{
		Machine: mc,
		VPs:     vps,
		Image:   flatImage(),
		Tracer:  rec,
	})
	if err != nil {
		t.Fatalf("NewFlatWorld: %v", err)
	}
	ar, err := w.Allreduce(8)
	if err != nil {
		t.Fatalf("Allreduce: %v", err)
	}
	st, err := w.MigrationStorm(4)
	if err != nil {
		t.Fatalf("MigrationStorm: %v", err)
	}
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, rec.Events()); err != nil {
		t.Fatal(err)
	}
	return flatRun{
		allreduce:     ar,
		storm:         st,
		events:        w.EventsFired(),
		migrations:    w.Migrations,
		migratedBytes: w.MigratedBytes,
		traceJSONL:    buf.String(),
	}
}

// TestFlatWorldParallelByteIdentical pins a 2 048-rank allreduce and
// storm — times, counters and trace bytes — on a one-node shape
// (per-PE domains) and a multi-node shape (per-node domains) to
// recorded values. A change to how the flat world orders or dispatches
// its events shows here as moved trace bytes.
func TestFlatWorldParallelByteIdentical(t *testing.T) {
	for _, sh := range []struct {
		name string
		mc   machine.Config
		want flatRun // traceJSONL holds the trace's hex SHA-256
		size int     // trace bytes
	}{
		{"laptop-1x1x8", laptop(), flatRun{198327520, 198688731, 4606, 512, 545255424,
			"1a74073500166421c8dfc1a604425f70f4720720924641ecc2d639df0eaf4332"}, 547781},
		{"cluster-4x2x2", machine.Config{Nodes: 4, ProcsPerNode: 2, PEsPerProc: 2}, flatRun{108093764, 108411502, 4606, 512, 545255424,
			"53355d82500c0feb70420ee838f566a0e7454b2c0fbff48d91817a583b519718"}, 549823},
	} {
		t.Run(sh.name, func(t *testing.T) {
			got := runFlatAt(t, sh.mc, 2048)
			size := len(got.traceJSONL)
			sum := sha256.Sum256([]byte(got.traceJSONL))
			got.traceJSONL = hex.EncodeToString(sum[:])
			if got != sh.want || size != sh.size {
				t.Fatalf("run %#v (%d trace bytes), want %#v (%d trace bytes)", got, size, sh.want, sh.size)
			}
		})
	}
}
