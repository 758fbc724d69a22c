package core

import (
	"fmt"

	"provirt/internal/elf"
	"provirt/internal/mem"
	"provirt/internal/sim"
	"provirt/internal/ult"
)

// storageKind records where a rank's view of one variable lives; it
// drives both the access-cost charge and the migration story.
type storageKind int

const (
	storeShared   storageKind = iota // base instance data segment (unprivatized)
	storePrivSeg                     // rank's private duplicated data segment
	storeTLS                         // rank's TLS block
	storeHeapCell                    // per-rank heap cell (manual refactor / swapglobals copy)
)

// RankContext is one virtual rank's privatized view of the program: for
// every variable, the storage its loads and stores reach under the
// active method, plus the rank's Isomalloc heap and user-level thread
// stack.
type RankContext struct {
	VP     int
	Method Kind
	Img    *elf.Image

	// Shared is the base (namespace-0) program instance all ranks in
	// the process can see.
	Shared *elf.Instance
	// Private is the rank's own instance under segment-duplicating
	// methods (PIP/FS/PIE), else nil.
	Private *elf.Instance
	// TLS is the rank's thread-local storage block (TLSglobals,
	// -fmpc-privatize, and PIEglobals-with-TLS), else nil: a
	// copy-on-write view of the plan's frozen block, which owns only the
	// granules the rank has reached.
	TLS *mem.Segment

	// Heap is the rank's Isomalloc heap (stack, user allocations, and —
	// under PIEglobals — the duplicated segments themselves).
	Heap *mem.Heap
	// Stack is the rank's user-level thread stack block.
	Stack *mem.Block

	// Thread is the user-level thread executing this rank, once bound.
	Thread *ult.Thread

	// plan is the per-variable resolution every rank of the process
	// shares; only what it resolves to is the rank's own.
	plan *plan
	// rcells memoizes, per variable, the heap block a store to a
	// segment-backed cell must dirty and, once a store has resolved it,
	// the segment word; an entry is valid while its epoch matches the
	// context's. It is allocated by the first segment-backed access, so a
	// rank whose accesses all reach its TLS block or heap cells holds
	// none. See segmentCell.
	rcells []segmentCell
	// epoch versions every cached segment word: restore/migration bumps
	// it, invalidating all cached resolutions at once.
	epoch uint64
	// heapCells is the per-rank privatized-copy block for manual /
	// swapglobals methods, else nil.
	heapCells *mem.Block

	// accesses counts privatized loads+stores for reporting.
	accesses uint64
}

type cellRef struct {
	kind storageKind
	slot int      // index into the owning storage array
	cost sim.Time // per-access charge
}

// segmentCell is one variable's resolved word in a shared or private
// data segment, cached for an epoch because reaching it goes through the
// segment view (Word) rather than a slice the context holds.
type segmentCell struct {
	epoch uint64
	// cell is the word a store resolved, nil until one has: a load reads
	// through the view without materialising its granule.
	cell *uint64
	// blk is the heap block backing the cell, if any; stores touch it
	// so incremental snapshots re-copy the block.
	blk *mem.Block
}

// newContext returns a context resolving through p, with heap + stack
// prepared; Setup fills in the rank's private storage.
func newContext(k Kind, p *plan, env *ProcessEnv, img *elf.Image, shared *elf.Instance, vp int) (*RankContext, error) {
	if vp < 0 || vp >= mem.MaxRanks {
		return nil, fmt.Errorf("core: rank %d outside the Isomalloc arena's %d per-rank ranges", vp, mem.MaxRanks)
	}
	heap := mem.NewHeap(vp)
	stackSize := env.StackSize
	if stackSize == 0 {
		stackSize = 1 << 20 // AMPI's default 1 MiB ULT stack
	}
	stack, err := heap.AllocBallast(stackSize, "ult-stack")
	if err != nil {
		return nil, err
	}
	return &RankContext{
		VP:     vp,
		Method: k,
		Img:    img,
		Shared: shared,
		Heap:   heap,
		Stack:  stack,
		plan:   p,
		epoch:  1, // zero-valued rcells entries are never current
	}, nil
}

// invalidateResolutions discards every cached segment word; the next
// access through any handle re-resolves against the context's current
// storage. Called whenever storage moves: migration restore.
func (c *RankContext) invalidateResolutions() { c.epoch++ }

// resolve returns the variable's writable storage cell, its per-access
// cost, and the heap block a store must dirty (nil when none): Store's
// path, the only one that materialises a granule. TLS and heap-cell
// slots are reached through the view and block the context holds, which
// restore rebinds; a data-segment cell is reached through the segment's
// view once per epoch and cached. A TLS slot is not cached: the cache
// holds a 24 B entry per program variable, 7.7 KB for ADCIRC's 321,
// three times the TLS block whose copy the view saves.
func (c *RankContext) resolve(v *elf.Var) (*uint64, sim.Time, *mem.Block) {
	ref := &c.plan.cells[v.Index]
	switch ref.kind {
	case storeTLS:
		return c.TLS.Word(ref.slot), ref.cost, nil
	case storeHeapCell:
		return &c.heapCells.Words[ref.slot], ref.cost, c.heapCells
	}
	sc := c.segmentCell(v, ref)
	if sc.cell == nil {
		sc.cell = c.instance(ref).Word(v.Index)
	}
	return sc.cell, ref.cost, sc.blk
}

// load reads the variable and returns its per-access cost without
// materialising anything: a word whose granule the view does not own
// yet is read from the segment's base.
func (c *RankContext) load(v *elf.Var) (uint64, sim.Time) {
	ref := &c.plan.cells[v.Index]
	switch ref.kind {
	case storeTLS:
		return c.TLS.Load(ref.slot), ref.cost
	case storeHeapCell:
		return c.heapCells.Words[ref.slot], ref.cost
	}
	if sc := c.segmentCell(v, ref); sc.cell != nil {
		return *sc.cell, ref.cost
	}
	return c.instance(ref).Seg.Load(v.Index), ref.cost
}

// dirtied returns the variable's per-access cost and the heap block a
// store to it dirties (nil when none), reaching no cell.
func (c *RankContext) dirtied(v *elf.Var) (sim.Time, *mem.Block) {
	ref := &c.plan.cells[v.Index]
	switch ref.kind {
	case storeTLS:
		return ref.cost, nil
	case storeHeapCell:
		return ref.cost, c.heapCells
	}
	return ref.cost, c.segmentCell(v, ref).blk
}

// segmentCell returns a data-segment variable's cache entry for the
// current epoch. A fresh entry knows the heap block a store must dirty;
// its cell stays nil until a store resolves it.
func (c *RankContext) segmentCell(v *elf.Var, ref *cellRef) *segmentCell {
	if c.rcells == nil {
		c.rcells = make([]segmentCell, len(c.Img.Vars))
	}
	sc := &c.rcells[v.Index]
	if sc.epoch != c.epoch {
		sc.epoch, sc.cell, sc.blk = c.epoch, nil, nil
		if ref.kind == storePrivSeg && c.Private.Migratable {
			// PIE private-segment cells live inside the duplicated
			// data segment's heap block; stores must dirty it. A
			// PiP/FS copy was mapped by the linker and has no block.
			sc.blk = c.Heap.Lookup(c.Private.DataBase)
		}
	}
	return sc
}

// instance is the loaded instance holding a data-segment variable.
func (c *RankContext) instance(ref *cellRef) *elf.Instance {
	if ref.kind == storeShared {
		return c.Shared
	}
	return c.Private
}

// Var returns an access handle for the named variable. Unknown names
// are programming errors and panic, matching the behaviour of an
// undefined symbol at link time.
func (c *RankContext) Var(name string) VarHandle {
	v := c.Img.VarByName(name)
	if v == nil {
		panic(fmt.Sprintf("core: program %q has no variable %q", c.Img.Name, name))
	}
	return VarHandle{ctx: c, v: v}
}

// Load reads the named variable, charging access cost to the rank's
// thread.
func (c *RankContext) Load(name string) uint64 { return c.Var(name).Load() }

// Store writes the named variable, charging access cost to the rank's
// thread.
func (c *RankContext) Store(name string, val uint64) { c.Var(name).Store(val) }

// Accesses reports the number of loads+stores performed through this
// context.
func (c *RankContext) Accesses() uint64 { return c.accesses }

// VarHandle is a resolved accessor for one variable in one rank's
// context.
type VarHandle struct {
	ctx *RankContext
	v   *elf.Var
}

// Name returns the variable's name.
func (h VarHandle) Name() string { return h.v.Name }

// Addr returns the virtual address the rank's accesses reach — useful
// for the pointer-identity tests and pieglobalsfind.
func (h VarHandle) Addr() uint64 {
	ref := h.ctx.plan.cells[h.v.Index]
	switch ref.kind {
	case storeShared:
		return h.ctx.Shared.VarAddr(h.v)
	case storePrivSeg:
		return h.ctx.Private.VarAddr(h.v)
	case storeTLS:
		// TLS cells live in the rank's heap-resident TLS block in the
		// real system; model a stable synthetic address derived from
		// the rank's reserved range top.
		return h.ctx.Heap.Base() + mem.IsomallocRangeSize - uint64(h.ctx.TLS.Len()-ref.slot)*8
	default:
		return h.ctx.heapCells.Addr + uint64(ref.slot)*8
	}
}

// Load reads the variable, charging the method's access cost. Handles
// survive migration: each access resolves against the context's current
// storage.
func (h VarHandle) Load() uint64 {
	c := h.ctx
	val, cost := c.load(h.v)
	if c.Thread != nil {
		c.Thread.Advance(cost)
	}
	c.accesses++
	return val
}

// Store writes the variable, charging the method's access cost. Writing
// a const-class variable panics: the program is violating its own
// write-once contract.
func (h VarHandle) Store(val uint64) {
	if h.v.Class == elf.ClassConst {
		panic(fmt.Sprintf("core: store to const variable %s", h.v.Name))
	}
	c := h.ctx
	cell, cost, blk := c.resolve(h.v)
	if c.Thread != nil {
		c.Thread.Advance(cost)
	}
	c.accesses++
	*cell = val
	if blk != nil {
		blk.Touch()
	}
}

// Charge bills the cost of n accesses to the variable without
// performing them: workloads use it to model inner loops that touch
// privatized globals billions of times without executing each touch. The
// batch may include stores, so the backing heap block (if any) is
// conservatively dirtied.
func (h VarHandle) Charge(n uint64) {
	c := h.ctx
	cost, blk := c.dirtied(h.v)
	if c.Thread != nil {
		c.Thread.Advance(sim.Time(n) * cost)
	}
	c.accesses += n
	if blk != nil {
		blk.Touch()
	}
}

// Privatized reports whether the rank sees private storage for the
// variable (false means accesses reach process-shared state).
func (h VarHandle) Privatized() bool {
	return h.ctx.plan.cells[h.v.Index].kind != storeShared
}
