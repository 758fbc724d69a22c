package loader

import (
	"errors"
	"testing"

	"provirt/internal/elf"
	"provirt/internal/machine"
)

func testSetup(t *testing.T) (*Linker, *machine.Cluster, *elf.Image) {
	t.Helper()
	cl, err := machine.New(machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 1})
	if err != nil {
		t.Fatal(err)
	}
	proc := cl.Processes()[0]
	img := elf.NewBuilder("app").
		Global("g", 5).
		Func("main", 1024).
		CodeBulk(1 << 20).
		MustBuild()
	return New(proc, cl.Cost), cl, img
}

func TestDlopenMapsSegments(t *testing.T) {
	l, _, img := testSetup(t)
	h, done, err := l.Dlopen(img, "app", 0)
	if err != nil {
		t.Fatal(err)
	}
	if done <= 0 {
		t.Error("dlopen charged no time")
	}
	if h.CodeRegion.Base == h.DataRegion.Base {
		t.Error("code and data segments alias")
	}
	if h.Inst.Seg.Load(img.VarByName("g").Index) != 5 {
		t.Error("globals not initialized")
	}
	// Re-opening the same path returns the same handle cheaply.
	h2, _, err := l.Dlopen(img, "app", done)
	if err != nil {
		t.Fatal(err)
	}
	if h2 != h {
		t.Error("dlopen of open path returned new handle")
	}
}

func TestDlmopenNamespaces(t *testing.T) {
	l, _, img := testSetup(t)
	seen := map[uint64]bool{}
	for i := 0; i < GlibcNamespaceLimit; i++ {
		h, _, err := l.Dlmopen(img, "app", 0)
		if err != nil {
			t.Fatalf("dlmopen %d: %v", i, err)
		}
		if h.Namespace == 0 {
			t.Error("dlmopen landed in the base namespace")
		}
		if seen[h.CodeRegion.Base] {
			t.Error("namespaces share a code segment")
		}
		seen[h.CodeRegion.Base] = true
	}
	if _, _, err := l.Dlmopen(img, "app", 0); !errors.Is(err, ErrNamespaceLimit) {
		t.Fatalf("13th dlmopen: %v, want ErrNamespaceLimit", err)
	}
	l.PatchedGlibc = true
	if _, _, err := l.Dlmopen(img, "app", 0); err != nil {
		t.Fatalf("patched glibc still limited: %v", err)
	}
}

func TestFSCopyLoad(t *testing.T) {
	l, cl, img := testSetup(t)
	done := WriteBinaryToFS(cl.FS, img, "/scratch/app.vp0", 0)
	if done <= 0 {
		t.Error("FS write charged no time")
	}
	h, done2, err := l.DlopenFromFS(cl.FS, img, "/scratch/app.vp0", done)
	if err != nil {
		t.Fatal(err)
	}
	if done2 <= done {
		t.Error("FS read charged no time")
	}
	if h.Inst == nil {
		t.Fatal("no instance")
	}
	// A second open of the same copy is an FSglobals usage error.
	if _, _, err := l.DlopenFromFS(cl.FS, img, "/scratch/app.vp0", done2); err == nil {
		t.Fatal("reopening a per-rank FS copy must fail")
	}
	// Reading a nonexistent file fails.
	if _, _, err := l.DlopenFromFS(cl.FS, img, "/scratch/nope", 0); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestSharedFSContention(t *testing.T) {
	_, cl, img := testSetup(t)
	// Two writes starting at the same instant serialize.
	d1 := WriteBinaryToFS(cl.FS, img, "/a", 0)
	d2 := WriteBinaryToFS(cl.FS, img, "/b", 0)
	if d2 <= d1 {
		t.Errorf("concurrent writes did not serialize: %v then %v", d1, d2)
	}
	if cl.FS.TotalBytes() != 2*img.TotalSegmentBytes() {
		t.Errorf("fs holds %d bytes", cl.FS.TotalBytes())
	}
}

func TestIteratePhdrDiff(t *testing.T) {
	l, _, img := testSetup(t)
	before := l.IteratePhdr()
	if len(before) != 0 {
		t.Fatalf("%d phdr records before any load", len(before))
	}
	h, _, _ := l.Dlopen(img, "app", 0)
	after := l.IteratePhdr()
	if len(after) != 1 {
		t.Fatalf("%d phdr records after load", len(after))
	}
	if after[0].CodeBase != h.CodeRegion.Base || after[0].DataBase != h.DataRegion.Base {
		t.Error("phdr bases disagree with regions")
	}
	if after[0].CodeSize != img.CodeSize {
		t.Error("phdr code size wrong")
	}
}

func TestPopulateShim(t *testing.T) {
	l, _, img := testSetup(t)
	h, done, _ := l.Dlopen(img, "app", 0)
	if h.ShimPopulated {
		t.Fatal("shim populated before unpack")
	}
	after := l.PopulateShim(h, done)
	if !h.ShimPopulated || after <= done {
		t.Fatal("populate shim did not run or charged no time")
	}
}

func TestLoadCostScalesWithRelocations(t *testing.T) {
	l, _, _ := testSetup(t)
	small := elf.NewBuilder("small").Global("g", 0).Func("f", 64).Relocations(10).MustBuild()
	big := elf.NewBuilder("big").Global("g", 0).Func("f", 64).Relocations(100000).MustBuild()
	_, dSmall, err := l.Dlopen(small, "small", 0)
	if err != nil {
		t.Fatal(err)
	}
	_, dBig, err := l.Dlopen(big, "big", 0)
	if err != nil {
		t.Fatal(err)
	}
	if dBig-0 <= dSmall {
		t.Errorf("relocation-heavy load (%v) not slower than light one (%v)", dBig, dSmall)
	}
}
