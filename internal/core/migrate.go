package core

import (
	"fmt"

	"provirt/internal/elf"
	"provirt/internal/mem"
)

// MigrationPayload is the serialized form of one rank's migratable
// state: its Isomalloc heap (which, under PIEglobals, contains the
// duplicated code and data segments), its TLS block, and bookkeeping.
// Everything restores at identical virtual addresses in the destination
// process, so pointers inside the payload need no translation.
type MigrationPayload struct {
	VP   int
	Heap *mem.Snapshot
	TLS  []uint64
}

// Bytes reports the full logical size of the payload: every live heap
// byte (user data, ULT stack, and — under PIEglobals — the code and
// data segments) plus the TLS block.
func (p *MigrationPayload) Bytes() uint64 {
	return p.Heap.Bytes() + uint64(len(p.TLS))*8
}

// DeltaBytes reports the bytes that actually changed since the rank's
// previous serialization: the dirty heap blocks plus the TLS block
// (which is small and always copied). A rank's first serialization has
// no predecessor, so its delta equals Bytes().
func (p *MigrationPayload) DeltaBytes() uint64 {
	return p.Heap.DeltaBytes() + uint64(len(p.TLS))*8
}

// Serialize captures the rank's migratable state for a checkpoint, or
// explains why the active privatization method cannot migrate it.
func (c *RankContext) Serialize() (*MigrationPayload, error) {
	if veto := c.Method.row().veto; veto != "" {
		return nil, fmt.Errorf("core: rank %d cannot migrate under %s: %s", c.VP, c.Method, veto)
	}
	p := &MigrationPayload{VP: c.VP, Heap: c.Heap.Serialize()}
	if c.TLS != nil {
		p.TLS = make([]uint64, c.TLS.Len())
		c.TLS.Scan(func(first int, words []uint64) { copy(p.TLS[first:], words) })
	}
	return p, nil
}

// Handoff moves the rank into the process whose base instance is
// destShared without copying its state, or explains why the active
// privatization method cannot migrate it. Isomalloc keeps every heap
// block at the same address in every process, so the rank keeps its
// Heap and TLS block; bytes and wire are what MigrationPayload.Bytes and
// DeltaBytes would report, and the heap's delta base advances as a
// Serialize would advance it. The rank's view of shared variables
// switches to destShared (a nil instance keeps the current one):
// unprivatized state is per-process, so a migrated rank sees the
// destination's copy.
func (c *RankContext) Handoff(destShared *elf.Instance) (bytes, wire uint64, err error) {
	if veto := c.Method.row().veto; veto != "" {
		return 0, 0, fmt.Errorf("core: rank %d cannot migrate under %s: %s", c.VP, c.Method, veto)
	}
	heap, delta := c.Heap.Handoff()
	tls := uint64(c.TLS.Len()) * 8
	if destShared != nil {
		c.Shared = destShared
	}
	c.invalidateResolutions()
	return heap + tls, delta + tls, nil
}

// RestoreInto rebuilds the rank's state in a destination process from
// the payload: the heap is reconstructed at identical addresses, block
// handles (stack, privatized-copy cells, duplicated segments) are
// rebound, and the rank's view of *shared* variables switches to the
// destination process's base instance, as in Handoff.
func (c *RankContext) RestoreInto(p *MigrationPayload, destShared *elf.Instance) error {
	if p.VP != c.VP {
		return fmt.Errorf("core: payload for rank %d restored into context of rank %d", p.VP, c.VP)
	}
	c.Heap = mem.Restore(p.Heap)
	// Every cached segment word referenced the old heap and instances;
	// force handles to re-resolve.
	c.invalidateResolutions()
	stack := c.Heap.Lookup(c.Stack.Addr)
	if stack == nil {
		return fmt.Errorf("core: rank %d: restored heap lost the ULT stack at %#x", c.VP, c.Stack.Addr)
	}
	c.Stack = stack
	if c.heapCells != nil {
		blk := c.Heap.Lookup(c.heapCells.Addr)
		if blk == nil {
			return fmt.Errorf("core: rank %d: restored heap lost privatized cells at %#x", c.VP, c.heapCells.Addr)
		}
		c.heapCells = blk
	}
	if p.TLS != nil {
		// The payload is immutable, so the restored block is a view of
		// it: its writes materialise granules of their own.
		c.TLS = mem.AdoptSegment(p.TLS).View()
	}
	if destShared != nil {
		c.Shared = destShared
	}
	return rebindPrivateInstance(c)
}

// Instance returns the program instance the rank executes from: its
// private duplicated copy under segment-duplicating methods, otherwise
// the process-shared instance.
func (c *RankContext) Instance() *elf.Instance {
	if c.Private != nil {
		return c.Private
	}
	return c.Shared
}

// FuncAddr returns the address of the named function in the rank's
// instance. Under segment-duplicating methods this address is unique to
// the rank — the property that forced AMPI to store user reduction
// operators as code-base offsets (§3.3).
func (c *RankContext) FuncAddr(name string) (uint64, error) {
	f := c.Img.FuncByName(name)
	if f == nil {
		return 0, fmt.Errorf("core: program %q has no function %q", c.Img.Name, name)
	}
	return c.Instance().FuncAddr(f), nil
}

// FuncOffset translates an absolute function address from this rank's
// instance into a code-base-relative offset.
func (c *RankContext) FuncOffset(addr uint64) (uint64, error) {
	return c.Instance().FuncOffset(addr)
}

// FuncAtOffset resolves a code-base-relative offset to the function it
// names in this rank's instance.
func (c *RankContext) FuncAtOffset(off uint64) (*elf.Func, error) {
	in := c.Instance()
	f := in.FuncAt(in.CodeBase + off)
	if f == nil {
		return nil, fmt.Errorf("core: rank %d: no function at code offset %#x", c.VP, off)
	}
	return f, nil
}
