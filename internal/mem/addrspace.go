// Package mem models virtual memory for the reproduction: a simulated
// 64-bit address space with mmap-style region mapping, and an
// Isomalloc-style migratable allocator.
//
// The distinction between the two allocation paths is the crux of the
// paper's migration story. Segments mapped by the (simulated) dynamic
// linker come from the plain mmap path and live at process-chosen
// addresses, so they cannot be migrated between address spaces —
// exactly why PIPglobals and FSglobals cannot support rank migration
// (§3.1, §3.2). Isomalloc allocations live in a per-rank virtual address
// range reserved identically in every process, so their bytes can be
// copied to another process with all internal pointers remaining valid —
// which is what lets PIEglobals migrate code and data segments (§3.3).
package mem

import "sort"

// PageSize is the granularity of region mapping.
const PageSize = 4096

// Region is a contiguous mapped range of the simulated address space:
// an anonymous process-local mapping, such as the segments the dynamic
// linker creates. Not migratable. (A rank's reserved Isomalloc range is
// modelled by Heap, not by regions.)
type Region struct {
	Base  uint64
	Size  uint64
	Label string
}

// End returns one past the last mapped address.
func (r *Region) End() uint64 { return r.Base + r.Size }

// Layout constants for the simulated address space. The mmap arena and
// the Isomalloc arena are disjoint so a pointer's provenance is decidable
// from its value alone, as it is on a real system with a reserved range.
const (
	mmapBase = 0x0000_7000_0000_0000
	// IsomallocBase is where rank 0's reserved range begins.
	IsomallocBase = 0x0000_1000_0000_0000
	// IsomallocRangeSize is the per-rank reserved range (64 GiB of
	// virtual space in the real implementation; the value here only
	// needs to exceed any rank's footprint).
	IsomallocRangeSize = 1 << 36
)

// AddressSpace is one OS process's view of virtual memory.
type AddressSpace struct {
	next uint64
	// index holds the regions sorted by base — the mmap arena only grows
	// upward, so in mapping order — for O(log n) containment checks.
	index []*Region
}

// NewAddressSpace returns an empty address space.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{next: mmapBase}
}

func roundUp(n uint64) uint64 {
	return (n + PageSize - 1) &^ (PageSize - 1)
}

// Mmap maps an anonymous region of at least size bytes at a
// process-chosen address and returns it. This is the path the simulated
// dynamic linker uses for code and data segments; such regions are not
// migratable.
func (as *AddressSpace) Mmap(size uint64, label string) *Region {
	if size == 0 {
		size = PageSize
	}
	r := &Region{Base: as.next, Size: roundUp(size), Label: label}
	as.next += r.Size + PageSize // guard page
	as.index = append(as.index, r)
	return r
}

// Find returns the region containing addr, or nil.
func (as *AddressSpace) Find(addr uint64) *Region {
	i := sort.Search(len(as.index), func(i int) bool { return as.index[i].End() > addr })
	if i < len(as.index) && as.index[i].Base <= addr {
		return as.index[i]
	}
	return nil
}

// RankRangeBase returns the base of virtual rank vp's reserved Isomalloc
// range. The value is a pure function of vp, identical in every process.
func RankRangeBase(vp int) uint64 {
	return IsomallocBase + uint64(vp)*IsomallocRangeSize
}

// MaxRanks is the number of per-rank ranges the Isomalloc arena holds
// before it would collide with the mmap arena.
const MaxRanks = (mmapBase - IsomallocBase) / IsomallocRangeSize
