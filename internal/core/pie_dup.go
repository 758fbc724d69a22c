package core

import (
	"fmt"

	"provirt/internal/elf"
	"provirt/internal/mem"
	"provirt/internal/sim"
)

// pieTemplate is what PIEglobals works out once per process and reuses
// for every rank: the loaded instance whose data-segment and ctor-object
// views the ranks clone, and the result of the pointer scan over them.
type pieTemplate struct {
	src *elf.Instance
	// relocs lists every word of the data segment and of the ctor heap
	// objects whose value looks like a pointer into the original segments
	// or ctor allocations.
	relocs []reloc
}

// reloc is one pointer-scan hit. holder and target index the same
// per-rank list: 0 the code segment (never a holder), 1 the data
// segment, 2+k ctor heap object k.
type reloc struct {
	holder, word, target int
	off                  uint64
}

// newPIETemplate runs the "contents that look like pointers" scan of
// §3.3 over src's data segment and over the ctor heap objects: a word
// whose integer value happens to fall inside the original segment ranges
// is listed for rebasing even if it was never a pointer — the false
// positive hazard the authors plan to engineer away.
// The simulation preserves that hazard deliberately (see
// TestPIEglobalsFalsePositive).
func newPIETemplate(src *elf.Instance) *pieTemplate {
	t := &pieTemplate{src: src}
	objIndex := make(map[*elf.HeapObj]int, len(src.HeapObjs))
	for k, o := range src.HeapObjs {
		objIndex[o] = k
	}
	scan := func(holder, first int, words []uint64) {
		for i, w := range words {
			switch {
			case src.ContainsCode(w):
				t.relocs = append(t.relocs, reloc{holder, first + i, 0, w - src.CodeBase})
			case src.ContainsData(w):
				t.relocs = append(t.relocs, reloc{holder, first + i, 1, w - src.DataBase})
			default:
				if o := src.HeapObjAt(w); o != nil {
					t.relocs = append(t.relocs, reloc{holder, first + i, 2 + objIndex[o], w - o.Addr})
				}
			}
		}
	}
	// Scan passes only what the host holds of the segment and skips
	// words it knows are zero. No zero word is a hit: every simulated
	// address, mmap'd or Isomalloc, is at least mem.IsomallocBase.
	src.Seg.Scan(func(first int, words []uint64) { scan(1, first, words) })
	for k, o := range src.HeapObjs {
		o.Words.Scan(func(first int, words []uint64) { scan(2+k, first, words) })
	}
	return t
}

// duplicateInstance implements the PIEglobals copy for one rank:
// allocate the code and data segments in the rank's Isomalloc heap,
// replicate the constructor heap allocations, and rebase every word the
// template's pointer scan listed (GOT entries live inside the data
// segment and are rebased by the same pass).
//
// Modelled cost and host cost part ways here. The rank is charged for
// copying, mapping and scanning every byte, as the real runtime does;
// the host copies only the granules (512 B, not modelled pages) the
// process's instance owns or that hold a rebased word — for ADCIRC, the
// four around its GOT — and the rest of each of the rank's views reads
// through to a frozen base: the image's initialised prefix and, past it,
// zeros the host never stores, or what a constructor wrote.
func duplicateInstance(env *ProcessEnv, t *pieTemplate, heap *mem.Heap, r *methodRow) (*elf.Instance, sim.Time, error) {
	src, img := t.src, t.src.Img
	var cost sim.Time

	codeBlk, err := heap.AllocBallast(img.CodeSize, "pie-code-segment")
	if err != nil {
		return nil, 0, err
	}
	dataBlk, err := heap.AllocSegment(src.Seg, "pie-data-segment")
	if err != nil {
		return nil, 0, err
	}
	dataBytes := dataBlk.Size
	if r.shareCode {
		// §6 future work: the rank's code is a read-only mapping of
		// one shared descriptor — page tables only, no copy, no
		// resident footprint, no migration payload.
		heap.MarkSharedBytes(codeBlk, codeBlk.Size)
		copyBytes := dataBytes
		if r.shareRO {
			// COW extension: the read-only slice of the data segment
			// (const cells + declared .rodata bulk) stays on the shared
			// mapping too. Only the writable delta is copied per rank;
			// the RO bytes are page-table work, not memcpy, and drop out
			// of the rank's resident footprint and migration payload.
			ro := img.Layout().ROBytes
			if ro > copyBytes {
				ro = copyBytes
			}
			heap.MarkSharedBytes(dataBlk, ro)
			copyBytes -= ro
		}
		cost += env.Cost.CopyTime(copyBytes)
	} else {
		cost += env.Cost.CopyTime(img.CodeSize + dataBytes)
	}
	cost += env.Cost.PageMapTime(img.CodeSize + dataBytes)
	cost += sim.Time(dataBlk.Words.Len()) * env.Cost.PointerScanPerWord

	// addrs[i] is where this rank keeps the thing relocs call i, and
	// segs[i] its payload (none for the code segment).
	addrs := []uint64{codeBlk.Addr, dataBlk.Addr}
	segs := []*mem.Segment{nil, dataBlk.Words}
	objs := make([]*elf.HeapObj, 0, len(src.HeapObjs))
	for _, o := range src.HeapObjs {
		blk, err := heap.AllocSegment(o.Words, "pie-ctor-alloc")
		if err != nil {
			return nil, 0, err
		}
		cost += env.Cost.CopyTime(o.Size) + env.Cost.CtorReplayPerAlloc +
			sim.Time(o.Words.Len())*env.Cost.PointerScanPerWord
		addrs = append(addrs, blk.Addr)
		segs = append(segs, blk.Words)
		objs = append(objs, &elf.HeapObj{Addr: blk.Addr, Size: o.Size, Words: blk.Words})
	}
	for _, r := range t.relocs {
		*segs[r.holder].Word(r.word) = addrs[r.target] + r.off
	}

	return &elf.Instance{
		Img:        img,
		Namespace:  src.Namespace,
		CodeBase:   codeBlk.Addr,
		DataBase:   dataBlk.Addr,
		Seg:        dataBlk.Words,
		HeapObjs:   objs,
		Migratable: true,
	}, cost, nil
}

// rebindPrivateInstance reattaches a migrated PIEglobals context's
// private instance to the restored heap blocks (same addresses, new
// storage). Called after mem.Restore on the destination process.
func rebindPrivateInstance(c *RankContext) error {
	old := c.Private
	if old == nil || !old.Migratable {
		return nil
	}
	dataBlk := c.Heap.Lookup(old.DataBase)
	if dataBlk == nil {
		return fmt.Errorf("core: rank %d: restored heap lost data segment block at %#x", c.VP, old.DataBase)
	}
	if c.Heap.Lookup(old.CodeBase) == nil {
		return fmt.Errorf("core: rank %d: restored heap lost code segment block at %#x", c.VP, old.CodeBase)
	}
	objs := make([]*elf.HeapObj, 0, len(old.HeapObjs))
	for _, o := range old.HeapObjs {
		blk := c.Heap.Lookup(o.Addr)
		if blk == nil {
			return fmt.Errorf("core: rank %d: restored heap lost ctor allocation at %#x", c.VP, o.Addr)
		}
		objs = append(objs, &elf.HeapObj{Addr: blk.Addr, Size: blk.Size, Words: blk.Words})
	}
	priv := *old
	priv.Seg, priv.HeapObjs = dataBlk.Words, objs
	c.Private = &priv
	return nil
}
