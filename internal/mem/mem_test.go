package mem

import (
	"testing"
	"testing/quick"
)

func TestMmapDistinctRegions(t *testing.T) {
	as := NewAddressSpace()
	a := as.Mmap(1000, "a")
	b := as.Mmap(1000, "b")
	if a.Base == b.Base {
		t.Fatal("two mmaps share a base")
	}
	if a.Size%PageSize != 0 {
		t.Fatalf("size %d not page-aligned", a.Size)
	}
	if a.Base < b.End() && b.Base < a.End() {
		t.Fatal("regions overlap")
	}
}

func TestMmapFind(t *testing.T) {
	as := NewAddressSpace()
	r := as.Mmap(8192, "x")
	if got := as.Find(r.Base + 100); got != r {
		t.Fatal("Find missed a mapped address")
	}
	if as.Find(r.End()) != nil {
		t.Fatal("Find hit the guard page past a region")
	}
}

// rankOfAddress returns the virtual rank whose reserved range contains
// addr, or -1 if addr is outside the Isomalloc arena.
func rankOfAddress(addr uint64) int {
	if addr < IsomallocBase || addr >= mmapBase {
		return -1
	}
	vp := (addr - IsomallocBase) / IsomallocRangeSize
	return int(vp)
}

func TestRankRangeDisjointFromMmapArena(t *testing.T) {
	as := NewAddressSpace()
	for i := 0; i < 1000; i++ {
		r := as.Mmap(1<<20, "seg")
		if rankOfAddress(r.Base) != -1 {
			t.Fatalf("mmap region %#x inside the Isomalloc arena", r.Base)
		}
	}
	for vp := 0; vp < 100; vp++ {
		base := RankRangeBase(vp)
		if got := rankOfAddress(base); got != vp {
			t.Fatalf("rankOfAddress(RankRangeBase(%d)) = %d", vp, got)
		}
		if got := rankOfAddress(base + IsomallocRangeSize - 1); got != vp {
			t.Fatalf("range end attributed to %d, want %d", got, vp)
		}
	}
}

func TestHeapAllocAddressesStable(t *testing.T) {
	// The same allocation sequence must produce the same addresses in
	// any process — the Isomalloc invariant.
	h1, h2 := NewHeap(3), NewHeap(3)
	for i := 0; i < 50; i++ {
		a, err := h1.Alloc(uint64(8+i*16), "x")
		if err != nil {
			t.Fatal(err)
		}
		b, err := h2.Alloc(uint64(8+i*16), "x")
		if err != nil {
			t.Fatal(err)
		}
		if a.Addr != b.Addr {
			t.Fatalf("alloc %d diverged: %#x vs %#x", i, a.Addr, b.Addr)
		}
	}
}

func TestHeapBlocksWithinRange(t *testing.T) {
	h := NewHeap(7)
	for i := 0; i < 100; i++ {
		b, err := h.Alloc(1024, "x")
		if err != nil {
			t.Fatal(err)
		}
		if rankOfAddress(b.Addr) != 7 || rankOfAddress(b.End()-1) != 7 {
			t.Fatalf("block [%#x,%#x) escapes rank 7's range", b.Addr, b.End())
		}
	}
}

func TestHeapFreeAndReuse(t *testing.T) {
	h := NewHeap(0)
	a, _ := h.Alloc(256, "a")
	addr := a.Addr
	if err := h.Free(addr); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(addr); err == nil {
		t.Fatal("double free must fail")
	}
	b, _ := h.Alloc(256, "b")
	if b.Addr != addr {
		t.Fatalf("freed block not reused: got %#x want %#x", b.Addr, addr)
	}
	if len(h.index) != 1 {
		t.Fatalf("%d live blocks", len(h.index))
	}
}

// Free finds its block in the sorted address index alone: an address
// inside a live block, one already freed, one below the first block and
// one past the last are all refused, and a refusal changes nothing.
func TestFreeRefusesWhatIsNotABlockBase(t *testing.T) {
	h := NewHeap(2)
	var blks []*Block
	for _, size := range []uint64{64, 128, 256} {
		b, err := h.Alloc(size, "x")
		if err != nil {
			t.Fatal(err)
		}
		blks = append(blks, b)
	}
	if err := h.Free(blks[1].Addr); err != nil {
		t.Fatal(err)
	}
	live, resident := h.LiveBytes(), h.ResidentBytes()
	for _, tc := range []struct {
		name string
		addr uint64
	}{
		{"interior", blks[0].Addr + 8},
		{"interior of the last", blks[2].Addr + 8},
		{"double free", blks[1].Addr},
		{"below the first", h.Base() - 8},
		{"past the last", blks[2].End()},
		{"far past the last", h.Base() + IsomallocRangeSize - 8},
	} {
		if err := h.Free(tc.addr); err == nil {
			t.Errorf("%s: Free(%#x) succeeded", tc.name, tc.addr)
		}
	}
	if len(h.index) != 2 || h.index[0] != blks[0] || h.index[1] != blks[2] {
		t.Fatalf("a refused Free changed the index: %d blocks", len(h.index))
	}
	if h.LiveBytes() != live || h.ResidentBytes() != resident {
		t.Errorf("a refused Free moved the counters: live %d resident %d, want %d %d",
			h.LiveBytes(), h.ResidentBytes(), live, resident)
	}
	// A restored heap is indexed the same way, and frees the same.
	r := Restore(h.Serialize())
	if err := r.Free(blks[2].Addr + 8); err == nil {
		t.Error("restored heap freed an interior address")
	}
	if err := r.Free(blks[2].Addr); err != nil || r.Lookup(blks[2].Addr) != nil {
		t.Errorf("restored heap: Free(%#x) = %v, block still found: %v", blks[2].Addr, err, r.Lookup(blks[2].Addr) != nil)
	}
	for _, b := range []*Block{blks[2], blks[0]} {
		if err := h.Free(b.Addr); err != nil {
			t.Fatal(err)
		}
	}
	if len(h.index) != 0 || h.LiveBytes() != 0 {
		t.Fatalf("%d blocks, %d live bytes after freeing everything", len(h.index), h.LiveBytes())
	}
	if err := h.Free(blks[0].Addr); err == nil {
		t.Error("Free on an empty heap succeeded")
	}
}

func TestHeapLookup(t *testing.T) {
	h := NewHeap(1)
	b, _ := h.Alloc(100, "x")
	if h.Lookup(b.Addr+50) != b {
		t.Fatal("interior lookup failed")
	}
	if h.Lookup(b.End()) != nil {
		t.Fatal("lookup past end succeeded")
	}
}

func TestSerializeRestoreRoundTrip(t *testing.T) {
	h := NewHeap(5)
	a, _ := h.Alloc(64, "data")
	*a.Words.Word(0) = 0xdeadbeef
	*a.Words.Word(7) = a.Addr // self-referential pointer
	ballast, _ := h.AllocBallast(1<<20, "ballast")
	c, _ := h.Alloc(32, "more")
	*c.Words.Word(1) = a.Addr + 56 // pointer into a

	snap := h.Serialize()
	h2 := Restore(snap)

	a2 := h2.Lookup(a.Addr)
	if a2 == nil || a2.Words.Load(0) != 0xdeadbeef {
		t.Fatal("payload lost in round trip")
	}
	if a2.Words.Load(7) != a2.Addr {
		t.Fatal("self-pointer no longer valid")
	}
	c2 := h2.Lookup(c.Addr)
	if c2.Words.Load(1) != a2.Addr+56 {
		t.Fatal("cross-block pointer broken")
	}
	b2 := h2.Lookup(ballast.Addr)
	if b2 == nil || b2.Size != ballast.Size || b2.Words != nil {
		t.Fatal("ballast block mishandled")
	}
	if h2.LiveBytes() != h.LiveBytes() {
		t.Fatalf("live bytes %d vs %d", h2.LiveBytes(), h.LiveBytes())
	}
	// Restored heap allocates fresh blocks after the old brk.
	d, err := h2.Alloc(16, "new")
	if err != nil {
		t.Fatal(err)
	}
	if h2.Lookup(d.Addr) != d {
		t.Fatal("post-restore allocation broken")
	}
}

func TestSnapshotBytes(t *testing.T) {
	h := NewHeap(2)
	h.Alloc(100, "a") // rounds to 104
	h.AllocBallast(4096, "b")
	snap := h.Serialize()
	if snap.Bytes() != 104+4096 {
		t.Fatalf("snapshot bytes %d, want %d", snap.Bytes(), 104+4096)
	}
}

// Property: any alloc/free interleaving leaves live blocks disjoint,
// and serialize/restore preserves all live payloads.
func TestHeapDisjointnessProperty(t *testing.T) {
	type op struct {
		Size uint16
		Free bool
	}
	f := func(ops []op) bool {
		h := NewHeap(9)
		var live []*Block
		for i, o := range ops {
			if o.Free && len(live) > 0 {
				idx := i % len(live)
				if h.Free(live[idx].Addr) != nil {
					return false
				}
				live = append(live[:idx], live[idx+1:]...)
				continue
			}
			b, err := h.Alloc(uint64(o.Size)+8, "p")
			if err != nil {
				return false
			}
			*b.Words.Word(0) = uint64(i)
			live = append(live, b)
		}
		// Disjointness.
		for i := range live {
			for j := i + 1; j < len(live); j++ {
				a, b := live[i], live[j]
				if a.Addr < b.End() && b.Addr < a.End() {
					return false
				}
			}
		}
		// Round-trip fidelity.
		h2 := Restore(h.Serialize())
		for _, b := range live {
			nb := h2.Lookup(b.Addr)
			if nb == nil || nb.Words.Load(0) != b.Words.Load(0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHeapExhaustion(t *testing.T) {
	h := NewHeap(0)
	if _, err := h.Alloc(IsomallocRangeSize+8, "huge"); err == nil {
		t.Fatal("allocation beyond the reserved range must fail")
	}
	if _, err := h.Alloc(0, "zero"); err == nil {
		t.Fatal("zero-size allocation must fail")
	}
	// Sizes that wrap the arithmetic: 2^64-1 rounds up to zero, and
	// 2^64-4096 added to brk lands below the rank's base, inside rank
	// 0's range. Both must be refused and leave the heap as it was.
	h = NewHeap(1)
	for _, size := range []uint64{1<<64 - 1, 1<<64 - 4096} {
		if b, err := h.AllocBallast(size, "stack"); err == nil {
			t.Errorf("AllocBallast(%d) returned a %d-byte block at %#x", size, b.Size, b.Addr)
		}
	}
	b, err := h.AllocBallast(8, "next")
	if err != nil {
		t.Fatal(err)
	}
	if b.Addr != h.Base() || h.LiveBytes() != 8 || len(h.index) != 1 {
		t.Errorf("after refused allocations: next block at %#x (base %#x), %d live bytes in %d blocks",
			b.Addr, h.Base(), h.LiveBytes(), len(h.index))
	}
}
