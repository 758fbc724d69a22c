// Package elf models the pieces of a Position Independent Executable that
// the paper's privatization methods manipulate: code and data segments, a
// Global Offset Table, a TLS initialization template, global/static
// variables, functions, static constructors, and relocations.
//
// The model is synthetic — no real object files are parsed — but it is
// structured so that each privatization method's mechanism and failure
// modes fall out of the structure rather than being special-cased:
// Swapglobals can only redirect what is reachable through the GOT (so
// static variables stay shared), PIE instances place the data segment
// directly after the code segment (so duplicating both privatizes all
// globals), and static constructors run at load time and may stash
// pointers to code or heap in the data segment (so PIEglobals must scan
// and rebase them).
package elf

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// StorageClass classifies a program variable the way the paper's §2.2
// taxonomy does.
type StorageClass int

const (
	// ClassGlobal is a mutable global variable with external linkage
	// (reachable through the GOT in an ELF shared object).
	ClassGlobal StorageClass = iota
	// ClassStatic is a mutable function- or file-scope static variable.
	// It is addressed PC-relative and never appears in the GOT — the
	// reason Swapglobals cannot privatize it.
	ClassStatic
	// ClassConst is a read-only or write-once variable; safe to share
	// between virtual ranks (like num_ranks in the paper's Fig. 2).
	ClassConst
)

func (c StorageClass) String() string {
	switch c {
	case ClassGlobal:
		return "global"
	case ClassStatic:
		return "static"
	case ClassConst:
		return "const"
	default:
		return fmt.Sprintf("StorageClass(%d)", int(c))
	}
}

// Var declares one program variable. Every variable occupies one 8-byte
// cell in the data segment at offset 8*Index.
type Var struct {
	Name  string
	Class StorageClass
	Init  uint64
	// Tagged reports whether the programmer annotated the declaration
	// thread_local / __thread / !$omp threadprivate. TLSglobals only
	// privatizes tagged variables — the source of its "Mediocre"
	// automation rating in Table 1. The compiler-automated
	// -fmpc-privatize method ignores this flag and treats every
	// mutable variable as tagged.
	Tagged bool
	Index  int
}

// Mutable reports whether the variable is unsafe to share across ranks.
func (v *Var) Mutable() bool { return v.Class != ClassConst }

// Func declares one function in the code segment.
type Func struct {
	Name   string
	Offset uint64 // byte offset within the code segment
	Size   uint64 // footprint in bytes, used by the i-cache model
	Index  int
}

// CtorWrite is one store performed by a static constructor into the data
// segment.
type CtorWrite struct {
	// VarName is the destination cell.
	VarName string
	// Value is the raw value stored, used when neither pointer flag is
	// set.
	Value uint64
	// PointsToFunc, if non-empty, makes the store a function pointer to
	// the named function (its value depends on the code segment base —
	// the PIEglobals fixup hazard of §3.3, e.g. vtable slots).
	PointsToFunc string
	// PointsToAlloc, if >= 0, makes the store a pointer to the ctor
	// heap allocation with that ordinal. A zero PointsToAlloc means
	// "alloc 0", not "unset": a value or function-pointer store sets -1.
	PointsToAlloc int
}

// CtorAlloc is one heap allocation performed by a static constructor at
// load time (e.g. a std::string or std::vector member of a global C++
// object). Words may themselves contain pointers into the code segment
// (vtables) which PIEglobals must rebase per rank.
type CtorAlloc struct {
	Size uint64
	// FuncPtrSlots lists word offsets within the allocation that hold
	// function pointers; the value stored is the address of Func with
	// the matching ordinal index modulo the function count.
	FuncPtrSlots []int
}

// Ctor is one static constructor.
type Ctor struct {
	Allocs []CtorAlloc
	Writes []CtorWrite
}

// Image is a synthetic program binary (built as a PIE shared object).
type Image struct {
	Name string
	// Language is the source language ("c", "c++", "fortran"); some
	// privatization methods are language-specific (Photran).
	Language string
	// SharedDeps is the number of dynamic shared-object dependencies
	// beyond system libraries. FSglobals does not support programs
	// with shared-object dependencies (§3.2).
	SharedDeps int
	// CodeSize and DataSize are the segment footprints in bytes. They
	// include bulk beyond the declared functions and variables so
	// workloads can model real binaries (ADCIRC's 14 MB code segment,
	// Jacobi's 3 MB).
	CodeSize uint64
	DataSize uint64
	// RODataSize is the portion of DataSize that is read-only bulk
	// (.rodata-like lookup tables and literals lumped into the data
	// segment). Copy-on-write sharing keeps these bytes on shared pages
	// per rank; zero means only const variable cells are read-only.
	RODataSize uint64

	Vars  []*Var
	Funcs []*Func
	Ctors []Ctor

	// Relocations is the number of dynamic relocation entries the
	// linker processes per load; it scales dlopen/dlmopen cost.
	Relocations int

	byName   map[string]*Var
	fnByName map[string]*Func

	// varLookups counts VarByName calls — the symbol-table probes a
	// program performs. Workload inner loops are expected to resolve a
	// handle once and reuse it, so tests assert this stays bounded by
	// setup work rather than scaling with accesses. Atomic because
	// harness sweeps may run worlds sharing an image across goroutines.
	varLookups atomic.Int64

	// layoutState memoizes the shared instance-layout metadata (see
	// layout.go).
	layoutState
}

// VarByName returns the declared variable or nil.
func (img *Image) VarByName(name string) *Var {
	img.varLookups.Add(1)
	return img.byName[name]
}

// VarLookups reports how many VarByName probes the image has served.
func (img *Image) VarLookups() int64 { return img.varLookups.Load() }

// FuncByName returns the declared function or nil.
func (img *Image) FuncByName(name string) *Func { return img.fnByName[name] }

// DataWords returns the number of 8-byte cells in the data segment.
func (img *Image) DataWords() int { return int(img.DataSize / 8) }

// TotalSegmentBytes is the footprint one full PIE duplication costs.
func (img *Image) TotalSegmentBytes() uint64 { return img.CodeSize + img.DataSize }

// Builder assembles an Image. The zero value is not usable; call
// NewBuilder.
type Builder struct {
	img     *Image
	codeOff uint64
	err     error
}

// NewBuilder starts an image named name.
func NewBuilder(name string) *Builder {
	return &Builder{img: &Image{
		Name:     name,
		byName:   make(map[string]*Var),
		fnByName: make(map[string]*Func),
	}}
}

func (b *Builder) addVar(name string, class StorageClass, init uint64, tagged bool) *Builder {
	if b.err != nil {
		return b
	}
	if _, dup := b.img.byName[name]; dup {
		b.err = fmt.Errorf("elf: duplicate variable %q", name)
		return b
	}
	v := &Var{Name: name, Class: class, Init: init, Tagged: tagged, Index: len(b.img.Vars)}
	b.img.Vars = append(b.img.Vars, v)
	b.img.byName[name] = v
	return b
}

// Global declares a mutable global variable.
func (b *Builder) Global(name string, init uint64) *Builder {
	return b.addVar(name, ClassGlobal, init, false)
}

// TaggedGlobal declares a mutable global annotated thread_local.
func (b *Builder) TaggedGlobal(name string, init uint64) *Builder {
	return b.addVar(name, ClassGlobal, init, true)
}

// Static declares a mutable static variable.
func (b *Builder) Static(name string, init uint64) *Builder {
	return b.addVar(name, ClassStatic, init, false)
}

// TaggedStatic declares a mutable static annotated thread_local.
func (b *Builder) TaggedStatic(name string, init uint64) *Builder {
	return b.addVar(name, ClassStatic, init, true)
}

// Const declares a write-once/read-only variable (safe to share).
func (b *Builder) Const(name string, init uint64) *Builder {
	return b.addVar(name, ClassConst, init, false)
}

// Func declares a function of the given byte size.
func (b *Builder) Func(name string, size uint64) *Builder {
	if b.err != nil {
		return b
	}
	if _, dup := b.img.fnByName[name]; dup {
		b.err = fmt.Errorf("elf: duplicate function %q", name)
		return b
	}
	f := &Func{Name: name, Offset: b.codeOff, Size: size, Index: len(b.img.Funcs)}
	b.codeOff += size
	b.img.Funcs = append(b.img.Funcs, f)
	b.img.fnByName[name] = f
	return b
}

// Ctor records a static constructor.
func (b *Builder) Ctor(c Ctor) *Builder {
	if b.err != nil {
		return b
	}
	b.img.Ctors = append(b.img.Ctors, c)
	return b
}

// CodeBulk pads the code segment to at least size bytes.
func (b *Builder) CodeBulk(size uint64) *Builder {
	if b.err == nil && size > b.img.CodeSize {
		b.img.CodeSize = size
	}
	return b
}

// DataBulk pads the data segment to at least size bytes.
func (b *Builder) DataBulk(size uint64) *Builder {
	if b.err == nil && size > b.img.DataSize {
		b.img.DataSize = size
	}
	return b
}

// RODataBulk declares that size bytes of the data segment are read-only
// bulk (lookup tables, literals). It is an annotation consumed by
// copy-on-write sharing; it does not grow the segment beyond DataBulk.
func (b *Builder) RODataBulk(size uint64) *Builder {
	if b.err == nil && size > b.img.RODataSize {
		b.img.RODataSize = size
	}
	return b
}

// Language records the source language ("c", "c++", "fortran").
func (b *Builder) Language(lang string) *Builder {
	if b.err == nil {
		b.img.Language = lang
	}
	return b
}

// SharedDeps records dynamic shared-object dependencies beyond system
// libraries.
func (b *Builder) SharedDeps(n int) *Builder {
	if b.err == nil {
		b.img.SharedDeps = n
	}
	return b
}

// Relocations sets an explicit dynamic relocation count; if unset, one
// per variable plus one per function is assumed.
func (b *Builder) Relocations(n int) *Builder {
	if b.err == nil {
		b.img.Relocations = n
	}
	return b
}

// Build finalizes and validates the image.
func (b *Builder) Build() (*Image, error) {
	if b.err != nil {
		return nil, b.err
	}
	img := b.img
	if img.Language == "" {
		img.Language = "c"
	}
	if img.CodeSize < b.codeOff {
		img.CodeSize = b.codeOff
	}
	if img.CodeSize == 0 {
		img.CodeSize = 4096
	}
	minData := uint64(len(img.Vars)) * 8
	if img.DataSize < minData {
		img.DataSize = minData
	}
	if img.DataSize == 0 {
		img.DataSize = 4096
	}
	// Round data size to whole words.
	img.DataSize = (img.DataSize + 7) &^ 7
	if img.Relocations == 0 {
		img.Relocations = len(img.Vars) + len(img.Funcs) + 16
	}
	for _, c := range img.Ctors {
		for _, w := range c.Writes {
			if img.byName[w.VarName] == nil {
				return nil, fmt.Errorf("elf: ctor writes unknown variable %q", w.VarName)
			}
			if w.PointsToFunc != "" && img.fnByName[w.PointsToFunc] == nil {
				return nil, fmt.Errorf("elf: ctor stores pointer to unknown function %q", w.PointsToFunc)
			}
			if w.PointsToAlloc >= len(c.Allocs) {
				return nil, fmt.Errorf("elf: ctor write references alloc %d of %d", w.PointsToAlloc, len(c.Allocs))
			}
		}
	}
	// Deterministic order for name iteration users.
	sort.Slice(img.Vars, func(i, j int) bool { return img.Vars[i].Index < img.Vars[j].Index })
	return img, nil
}

// MustBuild is Build for static program definitions that cannot fail.
func (b *Builder) MustBuild() *Image {
	img, err := b.Build()
	if err != nil {
		panic(err)
	}
	return img
}
