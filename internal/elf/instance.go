package elf

import (
	"fmt"

	"provirt/internal/mem"
)

// HeapObj is a heap allocation made by a static constructor at load
// time, owned by a particular instance of the image. Words is its
// content: in the loaded instance a view of what the constructor
// wrote, frozen once, and in a PIEglobals copy the payload of the
// rank's heap block.
type HeapObj struct {
	Addr  uint64
	Size  uint64
	Words *mem.Segment
}

// Instance is one loaded copy of an Image, mapped at concrete segment
// base addresses with live storage. The data segment layout is:
//
//	word 0 .. nVars-1   variable cells (8 bytes each)
//	word nVars ..       Global Offset Table entries
//	remainder           .data/.bss bulk
//
// Keeping the GOT inside the data segment mirrors ELF (.got lives in the
// data area) and is what makes PIEglobals' pointer scan find and rebase
// GOT entries without special-casing them.
type Instance struct {
	Img *Image
	// Namespace is the link-map namespace index the instance was loaded
	// into (0 = base namespace; dlmopen copies get fresh ones).
	Namespace int
	CodeBase  uint64
	DataBase  uint64
	// Seg holds the data segment as 8-byte words: a copy-on-write view of
	// the image's frozen base (Layout), so an instance owns only the 512 B
	// granules written through it — the GOT, constructor stores, the
	// program's own.
	// A PIEglobals per-rank copy's view is the payload of its heap block.
	Seg *mem.Segment
	// HeapObjs are the static-constructor heap allocations belonging to
	// this instance.
	HeapObjs []*HeapObj
	// Migratable reports whether the segments were allocated through
	// Isomalloc (true only for PIEglobals copies).
	Migratable bool
}

// Word returns the cell of data-segment word i.
func (in *Instance) Word(i int) *uint64 { return in.Seg.Word(i) }

// gotBase returns the word index where the GOT begins.
func (in *Instance) gotBase() int { return len(in.Img.Vars) }

// gotIndexOfVar returns the GOT slot ordinal for an external-linkage
// variable, or -1 for statics (which have no GOT entry — the Swapglobals
// limitation). O(1) via the image's shared Layout; the seed recomputed
// it with an O(vars) scan per call, O(vars²) per instantiation.
func (in *Instance) gotIndexOfVar(v *Var) int {
	return in.Img.Layout().VarSlot(v.Index)
}

// gotIndexOfFunc returns the GOT slot ordinal for a function.
func (in *Instance) gotIndexOfFunc(f *Func) int {
	return in.Img.Layout().ExternVars + f.Index
}

// NewInstance materializes an image at the given segment bases: a fresh
// view of the image's frozen data segment (variable cells at their
// initializers), with the GOT populated with absolute addresses of this
// instance's cells and functions.
//
// Static constructors are NOT run here; the loader runs them (they
// execute at dlopen time with side effects the caller must account for).
func NewInstance(img *Image, codeBase, dataBase uint64, namespace int) (*Instance, error) {
	if codeBase == dataBase {
		return nil, fmt.Errorf("elf: code and data segments must not alias")
	}
	in := &Instance{Img: img, Namespace: namespace, CodeBase: codeBase, DataBase: dataBase,
		Seg: img.Layout().base.View()}
	gb := in.gotBase()
	for _, v := range img.Vars {
		if slot := in.gotIndexOfVar(v); slot >= 0 {
			*in.Word(gb + slot) = in.VarAddr(v)
		}
	}
	for _, f := range img.Funcs {
		*in.Word(gb + in.gotIndexOfFunc(f)) = in.FuncAddr(f)
	}
	return in, nil
}

// VarAddr returns the absolute address of a variable's cell in this
// instance.
func (in *Instance) VarAddr(v *Var) uint64 { return in.DataBase + uint64(v.Index)*8 }

// FuncAddr returns the absolute address of a function in this instance.
func (in *Instance) FuncAddr(f *Func) uint64 { return in.CodeBase + f.Offset }

// FuncOffset returns the code-segment-relative offset of an absolute
// function address, or an error if the address is outside this
// instance's code segment. This is the translation AMPI performs for
// user-defined reduction operators under PIEglobals (§3.3).
func (in *Instance) FuncOffset(addr uint64) (uint64, error) {
	if addr < in.CodeBase || addr >= in.CodeBase+in.Img.CodeSize {
		return 0, fmt.Errorf("elf: address %#x outside code segment [%#x,%#x)",
			addr, in.CodeBase, in.CodeBase+in.Img.CodeSize)
	}
	return addr - in.CodeBase, nil
}

// FuncAt returns the function whose body spans the given absolute
// address, or nil.
func (in *Instance) FuncAt(addr uint64) *Func {
	if addr < in.CodeBase || addr >= in.CodeBase+in.Img.CodeSize {
		return nil
	}
	off := addr - in.CodeBase
	for _, f := range in.Img.Funcs {
		if off >= f.Offset && off < f.Offset+f.Size {
			return f
		}
	}
	return nil
}

// GOTEntryForVar returns the GOT slot contents for an external-linkage
// variable. Statics return ok=false.
func (in *Instance) GOTEntryForVar(v *Var) (addr uint64, ok bool) {
	slot := in.gotIndexOfVar(v)
	if slot < 0 {
		return 0, false
	}
	return in.Seg.Load(in.gotBase() + slot), true
}

// ContainsCode reports whether addr falls in this instance's code
// segment.
func (in *Instance) ContainsCode(addr uint64) bool {
	return addr >= in.CodeBase && addr < in.CodeBase+in.Img.CodeSize
}

// ContainsData reports whether addr falls in this instance's data
// segment.
func (in *Instance) ContainsData(addr uint64) bool {
	return addr >= in.DataBase && addr < in.DataBase+in.Img.DataSize
}

// HeapObjAt returns the ctor heap object containing addr, or nil.
func (in *Instance) HeapObjAt(addr uint64) *HeapObj {
	for _, h := range in.HeapObjs {
		if addr >= h.Addr && addr < h.Addr+h.Size {
			return h
		}
	}
	return nil
}

// RunCtors executes the image's static constructors against this
// instance: allocations come from alloc (which models malloc at load
// time) and stores land in the data segment. It returns the number of
// heap allocations performed.
func (in *Instance) RunCtors(alloc func(size uint64) uint64) (int, error) {
	count := 0
	for _, c := range in.Img.Ctors {
		objs := make([]*HeapObj, len(c.Allocs))
		for i, a := range c.Allocs {
			size := (a.Size + 7) &^ 7
			addr := alloc(size)
			words := make([]uint64, size/8)
			for _, slot := range a.FuncPtrSlots {
				if slot < 0 || slot >= len(words) {
					return count, fmt.Errorf("elf: ctor func-ptr slot %d outside alloc of %d words", slot, len(words))
				}
				if len(in.Img.Funcs) == 0 {
					return count, fmt.Errorf("elf: ctor func-ptr slot with no functions declared")
				}
				f := in.Img.Funcs[slot%len(in.Img.Funcs)]
				words[slot] = in.FuncAddr(f)
			}
			obj := &HeapObj{Addr: addr, Size: size, Words: mem.AdoptSegment(words).View()}
			objs[i] = obj
			in.HeapObjs = append(in.HeapObjs, obj)
			count++
		}
		for _, w := range c.Writes {
			v := in.Img.VarByName(w.VarName)
			switch {
			case w.PointsToFunc != "":
				*in.Word(v.Index) = in.FuncAddr(in.Img.FuncByName(w.PointsToFunc))
			case w.PointsToAlloc >= 0 && w.PointsToAlloc < len(objs):
				*in.Word(v.Index) = objs[w.PointsToAlloc].Addr
			default:
				*in.Word(v.Index) = w.Value
			}
		}
	}
	return count, nil
}
