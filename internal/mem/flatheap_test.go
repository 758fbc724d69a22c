package mem

import (
	"fmt"
	"sort"
)

// flatHeap is the oracle FuzzSegmentView holds Heap to: the
// representation Heap replaced, in which a payload block holds its
// content as a flat []uint64 that Serialize and Restore copy whole. It
// keeps that heap's allocator (first fit over an address-ordered free
// list whose oversized spans split, else bump), its accounting, and its
// snapshot semantics: a snapshot is a deep copy that later changes never
// reach, and its delta is the resident span of every block allocated or
// touched since the previous Serialize, Handoff or Restore.
type flatHeap struct {
	vp     int
	brk    uint64
	blocks []*flatBlock // live blocks, address-ordered
	free   []FreeSpan   // address-ordered
}

type flatBlock struct {
	addr, size, shared uint64
	label              string
	words              []uint64 // nil for ballast
	dirty              bool
}

// flatSnap is a flatHeap's snapshot: every block deep-copied.
type flatSnap struct {
	vp           int
	brk          uint64
	blocks       []flatBlock
	free         []FreeSpan
	bytes, delta uint64
}

func newFlatHeap(vp int) *flatHeap {
	return &flatHeap{vp: vp, brk: RankRangeBase(vp)}
}

// alloc places a block of size bytes as Heap.allocRaw does; words is its
// payload (nil for ballast), already size/8 long.
func (h *flatHeap) alloc(size uint64, label string, words []uint64) (*flatBlock, error) {
	if size == 0 || align8(size) < size {
		return nil, fmt.Errorf("flat: bad size %d", size)
	}
	size = align8(size)
	b := &flatBlock{size: size, label: label, words: words, dirty: true}
	for i, f := range h.free {
		if f.Size < size {
			continue
		}
		b.addr = f.Addr
		if f.Size > size {
			h.free[i] = FreeSpan{Addr: f.Addr + size, Size: f.Size - size}
		} else {
			h.free = append(h.free[:i], h.free[i+1:]...)
		}
		h.insert(b)
		return b, nil
	}
	if size > RankRangeBase(h.vp)+IsomallocRangeSize-h.brk {
		return nil, fmt.Errorf("flat: range exhausted")
	}
	b.addr = h.brk
	h.brk += size
	h.insert(b)
	return b, nil
}

func (h *flatHeap) insert(b *flatBlock) {
	i := sort.Search(len(h.blocks), func(i int) bool { return h.blocks[i].addr > b.addr })
	h.blocks = append(h.blocks, nil)
	copy(h.blocks[i+1:], h.blocks[i:])
	h.blocks[i] = b
}

func (h *flatHeap) release(addr uint64) error {
	for i, b := range h.blocks {
		if b.addr != addr {
			continue
		}
		h.blocks = append(h.blocks[:i], h.blocks[i+1:]...)
		j := sort.Search(len(h.free), func(j int) bool { return h.free[j].Addr > addr })
		h.free = append(h.free, FreeSpan{})
		copy(h.free[j+1:], h.free[j:])
		h.free[j] = FreeSpan{Addr: addr, Size: b.size}
		return nil
	}
	return fmt.Errorf("flat: free of unallocated address %#x", addr)
}

func (b *flatBlock) markShared(n uint64) {
	b.shared = max(b.shared, min(n, b.size))
}

func (h *flatHeap) liveResident() (live, resident uint64) {
	for _, b := range h.blocks {
		live += b.size
		resident += b.size - b.shared
	}
	return live, resident
}

// handoff reports the snapshot's bytes and delta and clears every dirty
// mark, copying nothing.
func (h *flatHeap) handoff() (bytes, delta uint64) {
	for _, b := range h.blocks {
		bytes += b.size - b.shared
		if b.dirty {
			delta += b.size - b.shared
			b.dirty = false
		}
	}
	return bytes, delta
}

func (h *flatHeap) serialize() *flatSnap {
	s := &flatSnap{vp: h.vp, brk: h.brk, free: append([]FreeSpan(nil), h.free...)}
	s.bytes, s.delta = h.handoff()
	for _, b := range h.blocks {
		cp := *b
		if b.words != nil {
			cp.words = append([]uint64(nil), b.words...)
		}
		s.blocks = append(s.blocks, cp)
	}
	return s
}

func restoreFlat(s *flatSnap) *flatHeap {
	h := &flatHeap{vp: s.vp, brk: s.brk, free: append([]FreeSpan(nil), s.free...)}
	for _, b := range s.blocks {
		nb := b
		if b.words != nil {
			nb.words = append([]uint64(nil), b.words...)
		}
		h.blocks = append(h.blocks, &nb)
	}
	return h
}
