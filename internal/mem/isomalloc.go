package mem

import (
	"fmt"
	"sort"
)

// Block is one live Isomalloc allocation. Payload cells are 8-byte words;
// allocations that only matter for their footprint (user heap ballast)
// may carry a nil payload and record only their size.
type Block struct {
	Addr  uint64
	Size  uint64
	Label string
	// Words is the allocation's payload, one word per 8 bytes: a
	// copy-on-write view of a frozen base (zero for Alloc), or nil for
	// footprint-only ballast. Pointer values stored here survive
	// migration verbatim because the block's address is identical in
	// every process.
	Words *Segment
	// SharedBytes is the block's shared span: the leading bytes backed by
	// a shared read-only mapping (one physical copy mapped from a single
	// descriptor, per the paper's §6 future-work plan) — all of a code
	// segment, the read-only head of a data segment. They occupy virtual
	// address space but contribute neither resident memory nor migration
	// payload: the destination re-establishes the mapping instead of
	// receiving bytes. The writable remainder behaves normally.
	SharedBytes uint64
	// gen is the block's generation stamp: it advances whenever the
	// payload may have changed (see Touch). snapGen is the generation the
	// last Serialize or Handoff saw, and snap the view that Serialize
	// captured, shared with its snapshot. While snapGen matches gen the
	// next Serialize reuses snap; a nil snap for a payload block means a
	// Handoff saw it last, so the content is unchanged but held nowhere
	// else, and the next Serialize copies it without charging a delta.
	gen, snapGen uint64
	snap         *Segment
}

// End returns one past the last byte of the block.
func (b *Block) End() uint64 { return b.Addr + b.Size }

// residentSpan returns the block's private (resident) byte count.
func (b *Block) residentSpan() uint64 { return b.Size - b.SharedBytes }

// Touch marks the block's payload as modified since the last snapshot.
// The runtime's write paths (privatized stores, charge-only access
// batches) call it automatically; code that writes through Words.Word
// between two Serialize calls on the same heap must call it by hand, or
// the next incremental snapshot will reuse the stale captured view.
func (b *Block) Touch() { b.gen++ }

// Heap is a per-rank Isomalloc heap: a bump allocator with free-list
// reuse inside the rank's reserved virtual address range. All state
// needed to reconstruct the heap in another process is serializable.
type Heap struct {
	vp    int
	base  uint64
	limit uint64
	brk   uint64
	// index holds the live blocks sorted by address: O(log n) lookups by
	// base (Free) or containment (Lookup), and scan-free ordered iteration.
	index []*Block
	free  []*Block // freed spans, address-ordered for deterministic reuse
	// live/resident are running byte counters maintained by
	// Alloc/Free/MarkSharedBytes so the accessors never rescan.
	live     uint64
	resident uint64
}

// NewHeap returns an empty heap for virtual rank vp. vp must be within
// the arena's capacity (MaxRanks).
func NewHeap(vp int) *Heap {
	if vp < 0 || vp >= MaxRanks {
		panic(fmt.Sprintf("isomalloc: rank %d outside arena capacity %d", vp, MaxRanks))
	}
	base := RankRangeBase(vp)
	return &Heap{vp: vp, base: base, limit: base + IsomallocRangeSize, brk: base}
}

// Base returns the heap's reserved-range base address.
func (h *Heap) Base() uint64 { return h.base }

func align8(n uint64) uint64 { return (n + 7) &^ 7 }

// Alloc allocates size bytes and returns the block. The payload is a
// view of a zero base: the host stores a word's granule only once it is
// written.
func (h *Heap) Alloc(size uint64, label string) (*Block, error) {
	b, err := h.allocRaw(size, label)
	if err != nil {
		return nil, err
	}
	b.Words = FreezeSegment(nil, int(b.Size/8)).View()
	return b, nil
}

// AllocBallast allocates size bytes of footprint-only memory: the block
// contributes to the heap's serialized size but carries no payload
// words. Workloads use it to model large user heaps cheaply.
func (h *Heap) AllocBallast(size uint64, label string) (*Block, error) {
	return h.allocRaw(size, label)
}

// indexInsert places b into the sorted address index. Bump allocations
// always land past every live block, so the common case appends.
func (h *Heap) indexInsert(b *Block) {
	n := len(h.index)
	if n == 0 || h.index[n-1].Addr < b.Addr {
		h.index = append(h.index, b)
		return
	}
	i := sort.Search(n, func(i int) bool { return h.index[i].Addr > b.Addr })
	h.index = append(h.index, nil)
	copy(h.index[i+1:], h.index[i:])
	h.index[i] = b
}

func (h *Heap) allocRaw(size uint64, label string) (*Block, error) {
	if size == 0 {
		return nil, fmt.Errorf("isomalloc: zero-size allocation")
	}
	// Sizes can come from outside the program (a Spec's stack_size), so
	// neither the rounding nor the range check below may wrap.
	if align8(size) < size {
		return nil, fmt.Errorf("isomalloc: rank %d range exhausted (%d bytes requested)", h.vp, size)
	}
	size = align8(size)
	// First-fit reuse from the address-ordered free list. An oversized
	// span is split: the block takes its head, the tail stays free at
	// the same list position (addresses stay sorted).
	for i, f := range h.free {
		if f.Size < size {
			continue
		}
		b := f
		b.Label = label
		b.SharedBytes = 0
		b.gen++ // never match the generation a past life's snapshot saw
		if f.Size > size {
			h.free[i] = &Block{Addr: f.Addr + size, Size: f.Size - size}
			b.Size = size
		} else {
			h.free = append(h.free[:i], h.free[i+1:]...)
		}
		h.indexInsert(b)
		h.live += size
		h.resident += size
		return b, nil
	}
	if size > h.limit-h.brk {
		return nil, fmt.Errorf("isomalloc: rank %d range exhausted (%d bytes requested)", h.vp, size)
	}
	// gen starts past snapGen's zero: no snapshot has seen the block.
	b := &Block{Addr: h.brk, Size: size, Label: label, gen: 1}
	h.brk += size
	h.indexInsert(b)
	h.live += size
	h.resident += size
	return b, nil
}

// Free releases the block at addr for reuse.
func (h *Heap) Free(addr uint64) error {
	i := sort.Search(len(h.index), func(i int) bool { return h.index[i].Addr >= addr })
	if i == len(h.index) || h.index[i].Addr != addr {
		return fmt.Errorf("isomalloc: free of unallocated address %#x", addr)
	}
	b := h.index[i]
	h.index = append(h.index[:i], h.index[i+1:]...)
	h.live -= b.Size
	h.resident -= b.residentSpan()
	b.Words, b.snap = nil, nil // the recycled struct must never revive a stale view
	b.Label = ""
	b.SharedBytes = 0
	i = sort.Search(len(h.free), func(i int) bool { return h.free[i].Addr > b.Addr })
	h.free = append(h.free, nil)
	copy(h.free[i+1:], h.free[i:])
	h.free[i] = b
	return nil
}

// MarkSharedBytes marks the leading n bytes of a live block as backed by
// a shared read-only mapping, moving them out of the rank's resident
// footprint and leaving the remainder private: the whole of a shared
// code segment, or the .rodata pages of a PIEglobals data segment. Use
// it rather than writing Block.SharedBytes so the heap's running
// counters stay consistent. n is clamped to the block size; marking
// never shrinks an existing shared span.
func (h *Heap) MarkSharedBytes(b *Block, n uint64) {
	if n > b.Size {
		n = b.Size
	}
	if n <= b.SharedBytes {
		return
	}
	h.resident -= n - b.SharedBytes
	b.SharedBytes = n
}

// Lookup returns the live block containing addr, or nil.
func (h *Heap) Lookup(addr uint64) *Block {
	i := sort.Search(len(h.index), func(i int) bool { return h.index[i].End() > addr })
	if i < len(h.index) && h.index[i].Addr <= addr {
		return h.index[i]
	}
	return nil
}

// LiveBytes reports the total size of live allocations.
func (h *Heap) LiveBytes() uint64 { return h.live }

// ResidentBytes reports live allocation bytes excluding spans backed by
// shared read-only mappings (each block's SharedBytes span) — the
// per-rank physical memory footprint.
func (h *Heap) ResidentBytes() uint64 { return h.resident }

// SharedSpanBytes reports live allocation bytes backed by shared
// read-only mappings: the gap between LiveBytes and ResidentBytes.
func (h *Heap) SharedSpanBytes() uint64 { return h.live - h.resident }

// FreeSpan is one reusable gap in a serialized heap. Restoring the free
// list alongside the blocks keeps the Isomalloc invariant across
// migration: the same allocation sequence produces the same addresses
// whether or not the rank moved in between.
type FreeSpan struct {
	Addr uint64
	Size uint64
}

// Snapshot is a serialized heap image: everything another process needs
// to reconstruct the heap at identical addresses.
type Snapshot struct {
	VP     int
	Brk    uint64
	Blocks []Block
	// FreeSpans is the allocator's free list, address-ordered.
	FreeSpans []FreeSpan
	// delta is the payload bytes that actually had to be copied: the
	// incremental cost of this snapshot given the previous one.
	delta uint64
}

// Bytes reports the number of payload bytes the snapshot logically
// carries (live block sizes; free-list structure travels as metadata).
// Blocks backed by shared mappings travel as metadata only: the
// destination remaps them instead of receiving their bytes.
func (s *Snapshot) Bytes() uint64 {
	var n uint64
	for i := range s.Blocks {
		n += s.Blocks[i].residentSpan()
	}
	return n
}

// DeltaBytes reports the payload bytes that changed since the previous
// snapshot of the same heap — the incremental cost an
// incremental-aware transport or filesystem pays. The first snapshot of
// a heap has no predecessor, so its delta equals Bytes().
func (s *Snapshot) DeltaBytes() uint64 { return s.delta }

// Serialize captures the heap for a checkpoint. Snapshots are
// incremental: a block untouched since the previous Serialize shares
// that snapshot's view instead of being copied again, and the granules
// of every view that does need copying go through one pooled buffer.
// The returned snapshot is immutable and remains valid after the heap
// changes or is discarded.
func (h *Heap) Serialize() *Snapshot {
	snap := &Snapshot{
		VP:     h.vp,
		Brk:    h.brk,
		Blocks: make([]Block, 0, len(h.index)),
	}
	if len(h.free) > 0 {
		snap.FreeSpans = make([]FreeSpan, len(h.free))
		for i, f := range h.free {
			snap.FreeSpans[i] = FreeSpan{Addr: f.Addr, Size: f.Size}
		}
	}
	var copyWords int
	for _, b := range h.index {
		if b.snapGen != b.gen || b.snap == nil {
			copyWords += b.Words.ownedWords()
		}
	}
	arena := make([]uint64, copyWords)
	var reused, copied uint64
	for _, b := range h.index {
		cp := Block{Addr: b.Addr, Size: b.Size, Label: b.Label, SharedBytes: b.SharedBytes}
		clean := b.snapGen == b.gen
		switch {
		case clean && (b.Words == nil || b.snap != nil):
			cp.Words = b.snap
			reused++
		case b.Words == nil:
			b.snapGen = b.gen
			snap.delta += b.residentSpan()
		default:
			// A view copies only its materialised granules; the modelled
			// delta below is still the whole block.
			cp.Words = b.Words.clone(&arena)
			copied++
			b.snap, b.snapGen = cp.Words, b.gen
			// Shared spans are remapped by the destination, never sent,
			// so they never count.
			if !clean {
				snap.delta += b.residentSpan()
			}
		}
		snap.Blocks = append(snap.Blocks, cp)
	}
	// Host-side accounting only; guarded so the metrics-off path pays a
	// single pointer comparison and skips the Bytes() walk entirely.
	if metrics.snapshots != nil {
		metrics.snapshots.Inc()
		metrics.fullBytes.Add(snap.Bytes())
		metrics.deltaBytes.Add(snap.delta)
		metrics.blocksReused.Add(reused)
		metrics.blocksCopied.Add(copied)
		metrics.arenaBytes.Add(uint64(copyWords) * 8)
	}
	return snap
}

// Handoff moves the heap to another process without copying it: every
// block keeps its address there, so the migrated rank keeps this heap.
// It returns what Serialize would report — bytes, the resident span of
// every block, and delta, that of every block touched since the last
// Serialize or Handoff — and advances those blocks' delta base without
// capturing them (see Block.snap).
func (h *Heap) Handoff() (bytes, delta uint64) {
	for _, b := range h.index {
		bytes += b.residentSpan()
		if b.snapGen != b.gen {
			b.snap, b.snapGen = nil, b.gen
			delta += b.residentSpan()
		}
	}
	if metrics.snapshots != nil {
		metrics.snapshots.Inc()
		metrics.fullBytes.Add(bytes)
		metrics.deltaBytes.Add(delta)
	}
	return bytes, delta
}

// Restore reconstructs a heap from a snapshot. Addresses are preserved
// exactly; this is what makes Isomalloc restart transparent to any
// pointers held in the payload. The snapshot is not consumed: each view
// is cloned, its granules through one pooled buffer, so it can be
// restored again or kept as a checkpoint. Each block keeps the
// snapshot's view as its captured one, so the heap's own first
// Serialize is already incremental.
func Restore(snap *Snapshot) *Heap {
	var total int
	for i := range snap.Blocks {
		total += snap.Blocks[i].Words.ownedWords()
	}
	arena := make([]uint64, total)
	h := NewHeap(snap.VP)
	h.brk = snap.Brk
	n := len(snap.Blocks)
	structs := make([]Block, n) // one allocation for all block headers
	h.index = make([]*Block, 0, n)
	for i := range snap.Blocks {
		cp := &snap.Blocks[i]
		nb := &structs[i]
		*nb = *cp // gen and snapGen are 0 in a snapshot block: captured
		nb.Words, nb.snap = cp.Words.clone(&arena), cp.Words
		h.index = append(h.index, nb) // snapshots are address-ordered
		h.live += nb.Size
		h.resident += nb.residentSpan()
	}
	if len(snap.FreeSpans) > 0 {
		h.free = make([]*Block, len(snap.FreeSpans))
		for i, f := range snap.FreeSpans {
			h.free[i] = &Block{Addr: f.Addr, Size: f.Size}
		}
	}
	return h
}
