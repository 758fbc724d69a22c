package elf

import (
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func testImage(t *testing.T) *Image {
	t.Helper()
	img, err := NewBuilder("prog").
		Global("g1", 10).
		Static("s1", 20).
		Const("c1", 30).
		TaggedGlobal("t1", 40).
		Func("main", 1024).
		Func("helper", 512).
		CodeBulk(1 << 20).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestBuilderBasics(t *testing.T) {
	img := testImage(t)
	if img.VarByName("g1").Class != ClassGlobal {
		t.Error("g1 class wrong")
	}
	if img.VarByName("s1").Class != ClassStatic {
		t.Error("s1 class wrong")
	}
	if !img.VarByName("t1").Tagged {
		t.Error("t1 not tagged")
	}
	if img.VarByName("c1").Mutable() {
		t.Error("const reported mutable")
	}
	mutable, tagged := 0, 0
	for _, v := range img.Vars {
		if v.Mutable() {
			mutable++
			if v.Tagged {
				tagged++
			}
		}
	}
	if mutable != 3 || tagged != 1 {
		t.Errorf("%d mutable vars of which %d tagged, want 3 and 1", mutable, tagged)
	}
	if img.FuncByName("helper").Offset != 1024 {
		t.Errorf("helper offset %d", img.FuncByName("helper").Offset)
	}
	if img.CodeSize != 1<<20 {
		t.Errorf("code size %d", img.CodeSize)
	}
	if img.Language != "c" {
		t.Errorf("default language %q", img.Language)
	}
}

func TestBuilderRejectsDuplicates(t *testing.T) {
	if _, err := NewBuilder("x").Global("a", 0).Static("a", 1).Build(); err == nil {
		t.Fatal("duplicate variable accepted")
	}
	if _, err := NewBuilder("x").Func("f", 8).Func("f", 8).Build(); err == nil {
		t.Fatal("duplicate function accepted")
	}
}

func TestBuilderValidatesCtors(t *testing.T) {
	_, err := NewBuilder("x").Global("g", 0).
		Ctor(Ctor{Writes: []CtorWrite{{VarName: "missing", Value: 1, PointsToAlloc: -1}}}).Build()
	if err == nil || !strings.Contains(err.Error(), "unknown variable") {
		t.Fatalf("ctor write to unknown variable: %v", err)
	}
	_, err = NewBuilder("x").Global("g", 0).
		Ctor(Ctor{Writes: []CtorWrite{{VarName: "g", PointsToFunc: "nofn", PointsToAlloc: -1}}}).Build()
	if err == nil || !strings.Contains(err.Error(), "unknown function") {
		t.Fatalf("ctor func-ptr to unknown function: %v", err)
	}
}

func TestInstanceInitialization(t *testing.T) {
	img := testImage(t)
	in, err := NewInstance(img, 0x10000, 0x200000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if in.Seg.Load(img.VarByName("g1").Index) != 10 {
		t.Error("g1 init wrong")
	}
	if in.Seg.Load(img.VarByName("c1").Index) != 30 {
		t.Error("c1 init wrong")
	}
	// GOT holds absolute addresses of external-linkage vars and funcs.
	got, ok := in.GOTEntryForVar(img.VarByName("g1"))
	if !ok || got != in.VarAddr(img.VarByName("g1")) {
		t.Errorf("GOT entry for g1 = %#x, want %#x", got, in.VarAddr(img.VarByName("g1")))
	}
	if _, ok := in.GOTEntryForVar(img.VarByName("s1")); ok {
		t.Error("static variable has a GOT entry")
	}
}

func TestNewInstanceRejectsAliasedSegments(t *testing.T) {
	if in, err := NewInstance(testImage(t), 0x10000, 0x10000, 0); err == nil || in != nil {
		t.Fatalf("code and data at one base: instance %v, err %v", in, err)
	}
}

// Two instances of one image are two views of one frozen base: the second
// costs the host its GOT page, not a data segment, and a store through
// one is never read through the other.
func TestNewInstanceSharesImageBase(t *testing.T) {
	img, err := NewBuilder("big").Global("g", 10).Func("main", 64).DataBulk(2 << 20).Build()
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewInstance(img, 0x10000, 0x4000000, 0)
	if err != nil {
		t.Fatal(err)
	}
	var b *Instance
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if b, err = NewInstance(img, 0x10000, 0x8000000, 1); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > img.DataSize/16 {
		t.Fatalf("second instance of a %d-byte data segment allocated %d host bytes", img.DataSize, got)
	}
	g, bulk := img.VarByName("g").Index, img.DataWords()-1
	*a.Word(g), *a.Word(bulk) = 11, 12
	*b.Word(g) = 21
	if a.Seg.Load(g) != 11 || a.Seg.Load(bulk) != 12 || b.Seg.Load(g) != 21 || b.Seg.Load(bulk) != 0 {
		t.Fatalf("stores crossed instances: a = %d/%d, b = %d/%d", a.Seg.Load(g), a.Seg.Load(bulk), b.Seg.Load(g), b.Seg.Load(bulk))
	}
	if c, _ := NewInstance(img, 0x10000, 0xc000000, 2); c.Seg.Load(g) != 10 || c.Seg.Load(bulk) != 0 {
		t.Fatalf("a store reached the image's base: a third instance reads %d/%d", c.Seg.Load(g), c.Seg.Load(bulk))
	}
	if ga, _ := a.GOTEntryForVar(img.VarByName("g")); ga != a.VarAddr(img.VarByName("g")) {
		t.Fatalf("instance a's GOT entry %#x is not its own cell", ga)
	}
}

func TestInstanceFuncAddressing(t *testing.T) {
	img := testImage(t)
	in, _ := NewInstance(img, 0x40000, 0x900000, 0)
	main := img.FuncByName("main")
	addr := in.FuncAddr(main)
	if addr != 0x40000 {
		t.Errorf("main at %#x", addr)
	}
	off, err := in.FuncOffset(addr + 100)
	if err != nil || off != 100 {
		t.Errorf("FuncOffset = %d, %v", off, err)
	}
	if _, err := in.FuncOffset(0x39999); err == nil {
		t.Error("offset outside code accepted")
	}
	if f := in.FuncAt(addr + 1500); f == nil || f.Name != "helper" {
		t.Errorf("FuncAt(helper body) = %v", f)
	}
	if f := in.FuncAt(in.CodeBase + 900000); f != nil {
		t.Errorf("FuncAt(bulk) = %v, want nil", f)
	}
}

func TestRunCtors(t *testing.T) {
	img, err := NewBuilder("cpp").
		Language("c++").
		Global("obj_ptr", 0).
		Global("vfn_ptr", 0).
		Global("plain", 0).
		Func("main", 256).
		Func("virtual_method", 128).
		Ctor(Ctor{
			Allocs: []CtorAlloc{{Size: 64, FuncPtrSlots: []int{1}}},
			Writes: []CtorWrite{
				{VarName: "obj_ptr", PointsToAlloc: 0},
				{VarName: "vfn_ptr", PointsToFunc: "virtual_method", PointsToAlloc: -1},
				{VarName: "plain", Value: 77, PointsToAlloc: -1},
			},
		}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	in, _ := NewInstance(img, 0x100000, 0x700000, 0)
	next := uint64(0x9000000)
	n, err := in.RunCtors(func(size uint64) uint64 {
		a := next
		next += size
		return a
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("%d ctor allocs", n)
	}
	objPtr := in.Seg.Load(img.VarByName("obj_ptr").Index)
	if objPtr != 0x9000000 {
		t.Errorf("obj_ptr = %#x", objPtr)
	}
	obj := in.HeapObjAt(objPtr)
	if obj == nil {
		t.Fatal("heap object not recorded")
	}
	// Slot 1 holds a pointer to some function in this instance's code.
	if fp := obj.Words.Load(1); !in.ContainsCode(fp) {
		t.Errorf("vtable slot %#x outside code", fp)
	}
	if in.Seg.Load(img.VarByName("vfn_ptr").Index) != in.FuncAddr(img.FuncByName("virtual_method")) {
		t.Error("function-pointer write wrong")
	}
	if in.Seg.Load(img.VarByName("plain").Index) != 77 {
		t.Error("plain write wrong")
	}
}

func TestDataSegmentAccommodatesGOT(t *testing.T) {
	// Even with no DataBulk, the instance's data segment must hold all
	// variable cells plus GOT slots.
	img, _ := NewBuilder("tiny").Global("a", 1).Func("f", 8).Build()
	in, err := NewInstance(img, 0x1000, 0x8000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if in.Seg.Len() < 1+2 { // one var cell + var GOT + func GOT
		t.Fatalf("data words %d too small", in.Seg.Len())
	}
}

func TestContainsBoundaries(t *testing.T) {
	img := testImage(t)
	in, _ := NewInstance(img, 0x40000, 0x900000, 0)
	if !in.ContainsCode(in.CodeBase) || in.ContainsCode(in.CodeBase+img.CodeSize) {
		t.Error("code boundary wrong")
	}
	if !in.ContainsData(in.DataBase) || in.ContainsData(in.DataBase+img.DataSize) {
		t.Error("data boundary wrong")
	}
}

// Property: for any variable set, instance initialization puts every
// declared init value at the declared index and GOT entries point at
// the matching cells.
func TestInstanceInitProperty(t *testing.T) {
	f := func(inits []uint64) bool {
		if len(inits) == 0 || len(inits) > 200 {
			return true
		}
		b := NewBuilder("p")
		for i, v := range inits {
			switch i % 3 {
			case 0:
				b.Global(name(i), v)
			case 1:
				b.Static(name(i), v)
			default:
				b.Const(name(i), v)
			}
		}
		img, err := b.Func("f", 64).Build()
		if err != nil {
			return false
		}
		in, err := NewInstance(img, 0x1000000, 0x2000000, 0)
		if err != nil {
			return false
		}
		for i, v := range inits {
			va := img.VarByName(name(i))
			if in.Seg.Load(va.Index) != v {
				return false
			}
			if got, ok := in.GOTEntryForVar(va); ok && got != in.VarAddr(va) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func name(i int) string {
	return "v" + string(rune('a'+i%26)) + string(rune('0'+(i/26)%10)) + string(rune('0'+i/260))
}
