package core

import (
	"fmt"

	"provirt/internal/elf"
	"provirt/internal/machine"
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
	storeCoreCell                    // per-core cell (hierarchical local storage)
	storeNodeCell                    // per-node/process cell (hierarchical local storage)
)

// RankContext is one virtual rank's privatized view of the program: for
// every variable, the storage its loads and stores reach under the
// active method, plus the rank's Isomalloc heap and user-level thread
// stack.
type RankContext struct {
	VP     int
	Method Method
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
	// coreCells and nodeCells are hierarchical-local-storage blocks
	// shared with, respectively, the other ranks on this rank's core
	// and every rank in the process (HLS, §2.3.5).
	coreCells []uint64
	nodeCells []uint64

	// Heap is the rank's Isomalloc heap (stack, user allocations, and —
	// under PIEglobals — the duplicated segments themselves).
	Heap *mem.Heap
	// Stack is the rank's user-level thread stack block.
	Stack *mem.Block

	// Migratable reports whether the rank's complete state can be
	// serialized and reconstructed in another address space.
	Migratable bool
	// MigrationVeto explains why migration is unsupported, for error
	// messages ("code segments were mapped by ld.so, not Isomalloc").
	MigrationVeto string

	// Thread is the user-level thread executing this rank, once bound.
	Thread *ult.Thread

	// Per-variable resolution, indexed by elf.Var.Index.
	cells []cellRef
	// rcells memoizes the resolved cell pointer (and the heap block a
	// store must dirty) per variable; an entry is valid while its epoch
	// matches the context's. See resolve.
	rcells []resolvedCell
	// epoch versions every resolved cell pointer: restore/migration and
	// method setup bump it, invalidating all cached resolutions at once.
	epoch uint64
	// tlsSlot maps a variable index to its slot in TLS, or -1.
	tlsSlot []int
	// heapCells is the per-rank privatized-copy block for manual /
	// swapglobals methods, else nil.
	heapCells *mem.Block

	// accesses counts privatized loads+stores for reporting.
	accesses uint64

	costModel *machine.CostModel
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

// newContext returns a context with heap + stack prepared; methods fill
// in storage resolution.
func newContext(m Method, env *ProcessEnv, img *elf.Image, shared *elf.Instance, vp int) (*RankContext, error) {
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
	c := &RankContext{
		VP:        vp,
		Method:    m,
		Img:       img,
		Shared:    shared,
		Heap:      heap,
		Stack:     stack,
		costModel: env.Cost,
	}
	c.cells = make([]cellRef, len(img.Vars))
	c.rcells = make([]resolvedCell, len(img.Vars))
	c.epoch = 1 // zero-valued rcells entries are never current
	c.tlsSlot = make([]int, len(img.Vars))
	for i := range c.tlsSlot {
		c.tlsSlot[i] = -1
	}
	return c, nil
}

// storage returns the backing slice and element index for a variable.
func (c *RankContext) storage(v *elf.Var) (*uint64, error) {
	ref := c.cells[v.Index]
	switch ref.kind {
	case storeShared:
		return c.Shared.Word(v.Index), nil
	case storePrivSeg:
		if c.Private == nil {
			return nil, fmt.Errorf("core: rank %d: private segment storage with no private instance", c.VP)
		}
		return c.Private.Word(v.Index), nil
	case storeTLS:
		return &c.TLS[ref.slot], nil
	case storeHeapCell:
		return &c.heapCells.Words[ref.slot], nil
	case storeCoreCell:
		return &c.coreCells[ref.slot], nil
	case storeNodeCell:
		return &c.nodeCells[ref.slot], nil
	default:
		return nil, fmt.Errorf("core: rank %d: unresolved storage for %s", c.VP, v.Name)
	}
}

// invalidateResolutions discards every cached cell pointer; the next
// access through any handle re-resolves against the context's current
// storage. Called whenever storage moves: migration restore, method
// setup.
func (c *RankContext) invalidateResolutions() { c.epoch++ }

// resolve returns the variable's current fast-path entry, refreshing it
// if the context's storage changed since it was last resolved.
func (c *RankContext) resolve(v *elf.Var) *resolvedCell {
	rc := &c.rcells[v.Index]
	if rc.epoch == c.epoch {
		return rc
	}
	cell, err := c.storage(v)
	if err != nil {
		panic(err)
	}
	ref := c.cells[v.Index]
	rc.cell, rc.cost, rc.blk, rc.epoch = cell, ref.cost, nil, c.epoch
	switch ref.kind {
	case storeHeapCell:
		rc.blk = c.heapCells
	case storePrivSeg:
		if c.Private.Migratable {
			// PIE private-segment cells live inside the duplicated data
			// segment's heap block; stores must dirty it. A PiP/FS copy
			// was mapped by the linker and has no block.
			rc.blk = c.Heap.Lookup(c.Private.DataBase)
		}
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
	ref := h.ctx.cells[h.v.Index]
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
	case storeHeapCell:
		return h.ctx.heapCells.Addr + uint64(ref.slot)*8
	default:
		// Hierarchical-local-storage cells live in runtime-owned
		// shared blocks with no modeled address.
		return 0
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
	k := h.ctx.cells[h.v.Index].kind
	return k != storeShared
}

// resolveAll assigns every variable a storage location. decide returns
// the storage for mutable variables; const variables always resolve to
// the shared instance.
func (c *RankContext) resolveAll(env *ProcessEnv, decide func(v *elf.Var) cellRef) {
	c.invalidateResolutions()
	direct := accessCost(env.Cost, false)
	for _, v := range c.Img.Vars {
		if !v.Mutable() {
			c.cells[v.Index] = cellRef{kind: storeShared, cost: direct}
			continue
		}
		c.cells[v.Index] = decide(v)
	}
}
