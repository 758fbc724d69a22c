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

import (
	"fmt"
	"sort"
)

// PageSize is the granularity of region mapping.
const PageSize = 4096

// RegionKind distinguishes how a region was allocated.
type RegionKind int

const (
	// MmapRegion is an anonymous process-local mapping, such as the
	// segments created by the dynamic linker. Not migratable.
	MmapRegion RegionKind = iota
	// IsoRegion is a mapping inside a rank's reserved Isomalloc range.
	// Migratable: the same virtual addresses are reserved in every
	// process.
	IsoRegion
)

func (k RegionKind) String() string {
	switch k {
	case MmapRegion:
		return "mmap"
	case IsoRegion:
		return "isomalloc"
	default:
		return fmt.Sprintf("RegionKind(%d)", int(k))
	}
}

// Region is a contiguous mapped range of the simulated address space.
type Region struct {
	Base  uint64
	Size  uint64
	Kind  RegionKind
	Label string
	// Owner is the virtual rank the region belongs to, or -1 for
	// process-wide mappings.
	Owner int
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
	// regions maps a region's base to the region; index keeps the same
	// regions sorted by base for O(log n) containment and overlap
	// checks.
	regions map[uint64]*Region
	index   []*Region
}

// NewAddressSpace returns an empty address space.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{
		next:    mmapBase,
		regions: make(map[uint64]*Region),
	}
}

// indexInsert places r into the sorted base index; the mmap arena grows
// upward, so the common case appends.
func (as *AddressSpace) indexInsert(r *Region) {
	n := len(as.index)
	if n == 0 || as.index[n-1].Base < r.Base {
		as.index = append(as.index, r)
		return
	}
	i := sort.Search(n, func(i int) bool { return as.index[i].Base > r.Base })
	as.index = append(as.index, nil)
	copy(as.index[i+1:], as.index[i:])
	as.index[i] = r
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
	r := &Region{
		Base:  as.next,
		Size:  roundUp(size),
		Kind:  MmapRegion,
		Label: label,
		Owner: -1,
	}
	as.next += r.Size + PageSize // guard page
	as.regions[r.Base] = r
	as.indexInsert(r)
	return r
}

// MapFixed maps a region at a caller-chosen base inside the Isomalloc
// arena. It fails if the range overlaps an existing mapping.
func (as *AddressSpace) MapFixed(base, size uint64, label string, owner int) (*Region, error) {
	if size == 0 {
		return nil, fmt.Errorf("mem: MapFixed with zero size")
	}
	size = roundUp(size)
	// The new range [base,base+size) can only collide with the region
	// whose base precedes its end first — regions are disjoint and
	// sorted, so one binary-search probe decides.
	i := sort.Search(len(as.index), func(i int) bool { return as.index[i].End() > base })
	if i < len(as.index) && as.index[i].Base < base+size {
		r := as.index[i]
		return nil, fmt.Errorf("mem: fixed mapping [%#x,%#x) overlaps %s [%#x,%#x)",
			base, base+size, r.Label, r.Base, r.End())
	}
	r := &Region{Base: base, Size: size, Kind: IsoRegion, Label: label, Owner: owner}
	as.regions[r.Base] = r
	as.indexInsert(r)
	return r, nil
}

// Unmap removes the region starting at base.
func (as *AddressSpace) Unmap(base uint64) error {
	if _, ok := as.regions[base]; !ok {
		return fmt.Errorf("mem: unmap of unmapped base %#x", base)
	}
	delete(as.regions, base)
	i := sort.Search(len(as.index), func(i int) bool { return as.index[i].Base >= base })
	copy(as.index[i:], as.index[i+1:])
	as.index = as.index[:len(as.index)-1]
	return nil
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
