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
	Method *Method
	Img    *elf.Image

	// Shared is the base (namespace-0) program instance all ranks in
	// the process can see.
	Shared *elf.Instance
	// Private is the rank's own instance under segment-duplicating
	// methods (PIP/FS/PIE), else nil.
	Private *elf.Instance
	// TLS is the rank's thread-local storage block (TLSglobals,
	// -fmpc-privatize, and PIEglobals-with-TLS), else nil.
	TLS []uint64

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
	// rcells memoizes the resolved cell pointer (and the heap block a
	// store must dirty) per variable; an entry is valid while its epoch
	// matches the context's. See resolve.
	rcells []resolvedCell
	// epoch versions every resolved cell pointer: restore/migration
	// bumps it, invalidating all cached resolutions at once.
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

// resolvedCell is the access fast path for one variable: the storage
// cell's address and cost, resolved once per epoch so inner loops skip
// the name lookup and the storage-kind switch.
type resolvedCell struct {
	epoch uint64
	cell  *uint64
	cost  sim.Time
	// blk is the heap block backing the cell, if any; stores touch it
	// so incremental snapshots re-copy the block.
	blk *mem.Block
}

// newContext returns a context resolving through p, with heap + stack
// prepared; Setup fills in the rank's private storage.
func newContext(m *Method, p *plan, env *ProcessEnv, img *elf.Image, shared *elf.Instance, vp int) (*RankContext, error) {
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
		Method: m,
		Img:    img,
		Shared: shared,
		Heap:   heap,
		Stack:  stack,
		plan:   p,
		rcells: make([]resolvedCell, len(img.Vars)),
		epoch:  1, // zero-valued rcells entries are never current
	}, nil
}

// invalidateResolutions discards every cached cell pointer; the next
// access through any handle re-resolves against the context's current
// storage. Called whenever storage moves: migration restore.
func (c *RankContext) invalidateResolutions() { c.epoch++ }

// resolve returns the variable's current fast-path entry, refreshing it
// if the context's storage changed since it was last resolved.
func (c *RankContext) resolve(v *elf.Var) *resolvedCell {
	rc := &c.rcells[v.Index]
	if rc.epoch == c.epoch {
		return rc
	}
	ref := c.plan.cells[v.Index]
	rc.cost, rc.blk, rc.epoch = ref.cost, nil, c.epoch
	switch ref.kind {
	case storeShared:
		rc.cell = c.Shared.Word(v.Index)
	case storePrivSeg:
		rc.cell = c.Private.Word(v.Index)
		if c.Private.Migratable {
			// PIE private-segment cells live inside the duplicated data
			// segment's heap block; stores must dirty it. A PiP/FS copy
			// was mapped by the linker and has no block.
			rc.blk = c.Heap.Lookup(c.Private.DataBase)
		}
	case storeTLS:
		rc.cell = &c.TLS[ref.slot]
	case storeHeapCell:
		rc.cell, rc.blk = &c.heapCells.Words[ref.slot], c.heapCells
	}
	return rc
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
		return h.ctx.Heap.Base() + mem.IsomallocRangeSize - uint64(len(h.ctx.TLS)-ref.slot)*8
	default:
		return h.ctx.heapCells.Addr + uint64(ref.slot)*8
	}
}

// Load reads the variable, charging the method's access cost. Handles
// survive migration: the cached resolution re-resolves automatically
// when the context's storage epoch advances.
func (h VarHandle) Load() uint64 {
	c := h.ctx
	rc := c.resolve(h.v)
	if c.Thread != nil {
		c.Thread.Advance(rc.cost)
	}
	c.accesses++
	return *rc.cell
}

// Store writes the variable, charging the method's access cost. Writing
// a const-class variable panics: the program is violating its own
// write-once contract.
func (h VarHandle) Store(val uint64) {
	if h.v.Class == elf.ClassConst {
		panic(fmt.Sprintf("core: store to const variable %s", h.v.Name))
	}
	c := h.ctx
	rc := c.resolve(h.v)
	if c.Thread != nil {
		c.Thread.Advance(rc.cost)
	}
	c.accesses++
	*rc.cell = val
	if rc.blk != nil {
		rc.blk.Touch()
	}
}

// Charge bills the cost of n accesses to the variable without
// performing them: workloads use it to model inner loops that touch
// privatized globals billions of times without executing each touch. The
// batch may include stores, so the backing heap block (if any) is
// conservatively dirtied.
func (h VarHandle) Charge(n uint64) {
	c := h.ctx
	rc := c.resolve(h.v)
	if c.Thread != nil {
		c.Thread.Advance(sim.Time(n) * rc.cost)
	}
	c.accesses += n
	if rc.blk != nil {
		rc.blk.Touch()
	}
}

// Privatized reports whether the rank sees private storage for the
// variable (false means accesses reach process-shared state).
func (h VarHandle) Privatized() bool {
	return h.ctx.plan.cells[h.v.Index].kind != storeShared
}
