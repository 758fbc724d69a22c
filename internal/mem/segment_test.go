package mem

import (
	"reflect"
	"runtime"
	"testing"
)

// segWords is the fuzzed segment's length: sixteen whole granules and a
// partial seventeenth, so granule-boundary and short-last-granule
// arithmetic both run, over more words than two 4 KiB pages.
const segWords = 16*granuleWords + 37

// prefixWords are the initialised prefixes the fuzzer freezes a base
// with: none, up to the middle of the ninth granule, exactly eight
// granules, and the whole segment. Past the prefix the base holds
// nothing on the host.
var prefixWords = [...]int{0, 8*granuleWords + granuleWords/2, 8 * granuleWords, segWords}

// planWords is the length of the fuzzed plan base, a privatized-cell
// block frozen whole: more than one granule, with a short last one.
const planWords = granuleWords + 9

// checkView compares a view with its flat oracle word for word. Scan's
// runs must ascend without overlap and equal the oracle; every word no
// run covers must read 0 through Load and be 0 in the oracle.
func checkView(t *testing.T, when string, view *Segment, flat []uint64) {
	t.Helper()
	if view.Len() != len(flat) || view.ownedWords() > len(flat) {
		t.Fatalf("%s: view of %d words owns %d, oracle has %d", when, view.Len(), view.ownedWords(), len(flat))
	}
	zeros := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if got := view.Load(i); got != 0 || flat[i] != 0 {
				t.Fatalf("%s: word %d is in no Scan run but reads %d, flat oracle has %d", when, i, got, flat[i])
			}
		}
	}
	next := 0
	view.Scan(func(first int, words []uint64) {
		if first < next || len(words) == 0 || first+len(words) > len(flat) {
			t.Fatalf("%s: Scan run starts at %d with %d words, previous ended at %d", when, first, len(words), next)
		}
		zeros(next, first)
		for i, got := range words {
			if want := flat[first+i]; got != want {
				t.Fatalf("%s: word %d = %d, flat oracle has %d", when, first+i, got, want)
			}
		}
		next = first + len(words)
	})
	zeros(next, len(flat))
}

// checkBlock compares one block, live or in a snapshot, with its oracle.
func checkBlock(t *testing.T, when string, b *Block, fb *flatBlock) {
	t.Helper()
	if b.Addr != fb.addr || b.Size != fb.size || b.Label != fb.label || b.SharedBytes != fb.shared {
		t.Fatalf("%s: block [%#x,+%d) %q shared %d, oracle [%#x,+%d) %q shared %d", when,
			b.Addr, b.Size, b.Label, b.SharedBytes, fb.addr, fb.size, fb.label, fb.shared)
	}
	if (b.Words == nil) != (fb.words == nil) {
		t.Fatalf("%s: block %#x has payload %v, oracle %v", when, b.Addr, b.Words != nil, fb.words != nil)
	}
	if b.Words != nil {
		checkView(t, when, b.Words, fb.words)
	}
}

// heapPair drives a rank's heap and its flat oracle in lockstep.
type heapPair struct {
	t    *testing.T
	cow  *Heap
	flat *flatHeap
}

// snapPair is a snapshot of both heaps, which must keep showing what it
// captured however the heaps change afterwards.
type snapPair struct {
	cow  *Snapshot
	flat *flatSnap
}

// check compares every live block and the heaps' accounting.
func (p *heapPair) check(when string) {
	p.t.Helper()
	if len(p.cow.index) != len(p.flat.blocks) {
		p.t.Fatalf("%s: %d live blocks, oracle %d", when, len(p.cow.index), len(p.flat.blocks))
	}
	for i, fb := range p.flat.blocks {
		checkBlock(p.t, when, p.cow.index[i], fb)
	}
	live, resident := p.flat.liveResident()
	if p.cow.LiveBytes() != live || p.cow.ResidentBytes() != resident {
		p.t.Fatalf("%s: live/resident %d/%d, oracle %d/%d", when, p.cow.LiveBytes(), p.cow.ResidentBytes(), live, resident)
	}
}

// allocated checks that an allocation made on both sides succeeded at
// the same address.
func (p *heapPair) allocated(b *Block, err error, fb *flatBlock, ferr error) {
	p.t.Helper()
	if err != nil || ferr != nil || b.Addr != fb.addr {
		p.t.Fatalf("allocation diverged: %v, oracle %v", err, ferr)
	}
}

// payload returns the sel'th live payload block of both heaps, or nil.
func (p *heapPair) payload(sel int) (*Block, *flatBlock) {
	var withWords []*flatBlock
	for _, fb := range p.flat.blocks {
		if fb.words != nil {
			withWords = append(withWords, fb)
		}
	}
	if len(withWords) == 0 {
		return nil, nil
	}
	fb := withWords[sel%len(withWords)]
	return p.cow.Lookup(fb.addr), fb
}

// live returns the sel'th live block of both heaps, or nil.
func (p *heapPair) live(sel int) (*Block, *flatBlock) {
	if len(p.flat.blocks) == 0 {
		return nil, nil
	}
	fb := p.flat.blocks[sel%len(p.flat.blocks)]
	return p.cow.Lookup(fb.addr), fb
}

func (p *heapPair) serialize() snapPair {
	p.t.Helper()
	s := snapPair{cow: p.cow.Serialize(), flat: p.flat.serialize()}
	if s.cow.Bytes() != s.flat.bytes || s.cow.DeltaBytes() != s.flat.delta {
		p.t.Fatalf("snapshot bytes/delta %d/%d, oracle %d/%d", s.cow.Bytes(), s.cow.DeltaBytes(), s.flat.bytes, s.flat.delta)
	}
	if !reflect.DeepEqual(s.cow.FreeSpans, s.flat.free) || s.cow.Brk != s.flat.brk {
		p.t.Fatalf("free spans %v brk %#x, oracle %v brk %#x", s.cow.FreeSpans, s.cow.Brk, s.flat.free, s.flat.brk)
	}
	return s
}

// check verifies the snapshot still shows what it captured.
func (s snapPair) check(t *testing.T, when string) {
	t.Helper()
	if len(s.cow.Blocks) != len(s.flat.blocks) {
		t.Fatalf("%s: %d blocks, oracle %d", when, len(s.cow.Blocks), len(s.flat.blocks))
	}
	for i := range s.cow.Blocks {
		checkBlock(t, when, &s.cow.Blocks[i], &s.flat.blocks[i])
	}
}

// FuzzSegmentView holds a whole rank heap — blocks over zero bases
// (Alloc), clones of a process's view of an image's frozen segment and
// of a plan's frozen cells (AllocSegment), ballast — through stores,
// touches, frees and first-fit reuse, shared marking, snapshots,
// restores and hand-offs, to flatHeap, the flat representation it
// replaced. prefix picks how much of the image's base is initialised
// (prefixWords), so the zero bulk the host never stores is read, cloned
// and written too.
//
// Each input byte pair is one operation: the first byte picks it (mod
// 13) and a block (the quotient), the second is its argument. After
// every operation the process view, every live block, the heaps'
// accounting and every kept snapshot must agree with the oracle. So a
// write at one level never shows at another, a clone of a view that
// owns granules equals a flat copy of it, and a write to the slice a
// base was frozen from never shows anywhere.
func FuzzSegmentView(f *testing.F) {
	for prefix := range uint8(len(prefixWords)) {
		f.Add(prefix, []byte{})
		f.Add(prefix, []byte{13, 5, 2, 0, 13, 200, 2, 0, 3, 0, 13, 9, 2, 0})                              // store, snap, store, snap, restore, store, snap
		f.Add(prefix, []byte{13, 1, 4, 0, 13, 255, 4, 0, 14, 0, 4, 0, 2, 0, 3, 1})                        // migrate loop with stores and a bare Touch
		f.Add(prefix, []byte{5, 3, 5, 9, 32, 0, 2, 0, 5, 1, 4, 0, 45, 0, 2, 0, 3, 0, 13, 7})              // zero blocks alloc'd, freed, reused around snapshots
		f.Add(prefix, []byte{11, 0, 0, 0, 11, 1, 2, 0, 11, 2, 4, 0, 11, 3, 3, 0, 13, 128})                // writes to the base's source slice
		f.Add(prefix, []byte{8, 0, 8, 130, 9, 0, 0, 0, 8, 1, 2, 0, 9, 0, 8, 131, 4, 0, 3, 0})             // process stores around two clones, a snapshot and a restore
		f.Add(prefix, []byte{10, 0, 10, 0, 0, 60, 13, 200, 2, 0, 26, 9, 3, 0, 13, 3, 2, 0})               // plan-cell clones, stored, snapped, restored
		f.Add(prefix, []byte{7, 20, 12, 40, 25, 200, 2, 0, 32, 0, 7, 1, 4, 0, 2, 0})                      // ballast, shared marking, a freed ballast span reused
		f.Add(prefix, []byte{18, 255, 13, 128, 2, 0, 32, 0, 18, 100, 13, 200, 2, 0, 3, 0, 13, 255, 2, 0}) // a multi-granule zero block split out of a freed one
		// Process and rank stores in descending granule order, so each
		// materialised granule goes in front of the list, then one between.
		f.Add(prefix, []byte{8, 250, 8, 130, 8, 10, 9, 0, 13, 240, 13, 160, 13, 80, 13, 20, 13, 120, 2, 0, 13, 100, 3, 0})
	}
	f.Fuzz(func(t *testing.T, prefix uint8, ops []byte) {
		if len(ops) > 128 {
			ops = ops[:128]
		}
		image := make([]uint64, prefixWords[int(prefix)%len(prefixWords)])
		for i := range image {
			image[i] = uint64(i)*3 + 1
		}
		proc := FreezeSegment(image, segWords).View()
		procFlat := make([]uint64, segWords)
		copy(procFlat, image)
		planInit := make([]uint64, planWords)
		for i := range planInit {
			planInit[i] = uint64(i) << 40
		}
		cells := AdoptSegment(planInit).View()

		p := &heapPair{t: t, cow: NewHeap(3), flat: newFlatHeap(3)}
		b, err := p.cow.AllocBallast(8192, "code")
		fb, ferr := p.flat.alloc(8192, "code", nil)
		p.allocated(b, err, fb, ferr)
		b, err = p.cow.AllocSegment(proc, "data")
		fb, ferr = p.flat.alloc(segWords*8, "data", append([]uint64(nil), procFlat...))
		p.allocated(b, err, fb, ferr)

		var kept []snapPair
		for n := 0; n+1 < len(ops); n += 2 {
			op, sel, arg := ops[n]%13, int(ops[n]/13), int(ops[n+1])
			switch op {
			case 0: // store through a block's view, as VarHandle.Store does
				if b, fb := p.payload(sel); b != nil {
					i := arg * len(fb.words) / 256
					*b.Words.Word(i), fb.words[i] = uint64(n)<<8|uint64(arg), uint64(n)<<8|uint64(arg)
					b.Touch()
					fb.dirty = true
				}
			case 1: // dirty without writing (a charge-only access batch)
				if b, fb := p.live(sel); b != nil {
					b.Touch()
					fb.dirty = true
				}
			case 2: // checkpoint: serialize and keep
				if len(kept) < 6 {
					kept = append(kept, p.serialize())
				}
			case 3: // restart from a kept checkpoint
				if len(kept) > 0 {
					s := kept[arg%len(kept)]
					p.cow, p.flat = Restore(s.cow), restoreFlat(s.flat)
				}
			case 4: // migrate: hand the heaps off, keeping them
				cbytes, cdelta := p.cow.Handoff()
				fbytes, fdelta := p.flat.handoff()
				if cbytes != fbytes || cdelta != fdelta {
					t.Fatalf("hand-off bytes/delta %d/%d, oracle %d/%d", cbytes, cdelta, fbytes, fdelta)
				}
			case 5: // a block over a zero base: one granule or less, or many
				size := uint64(arg%64+1) * 8 * uint64(1+sel%2*39)
				b, err := p.cow.Alloc(size, "scratch")
				fb, ferr := p.flat.alloc(size, "scratch", make([]uint64, size/8))
				p.allocated(b, err, fb, ferr)
			case 6: // free a block, so spans are reused first fit and split
				if b, fb := p.live(sel); b != nil {
					if err, ferr := p.cow.Free(b.Addr), p.flat.release(fb.addr); err != nil || ferr != nil {
						t.Fatalf("free %#x: %v, oracle %v", b.Addr, err, ferr)
					}
				}
			case 7: // footprint-only ballast
				size := uint64(arg+1) * 24
				b, err := p.cow.AllocBallast(size, "ballast")
				fb, ferr := p.flat.alloc(size, "ballast", nil)
				p.allocated(b, err, fb, ferr)
			case 8: // store through the process's view, as a ctor or an unprivatized store does
				i := arg * segWords / 256
				*proc.Word(i), procFlat[i] = uint64(n)<<8|uint64(arg)|1<<32, uint64(n)<<8|uint64(arg)|1<<32
			case 9: // a PIE data segment: clone the process's view as it now stands
				b, err := p.cow.AllocSegment(proc, "data")
				fb, ferr := p.flat.alloc(segWords*8, "data", append([]uint64(nil), procFlat...))
				p.allocated(b, err, fb, ferr)
			case 10: // privatized cells: clone the plan's view of its frozen base
				b, err := p.cow.AllocSegment(cells, "cells")
				fb, ferr := p.flat.alloc(planWords*8, "cells", append([]uint64(nil), planInit...))
				p.allocated(b, err, fb, ferr)
			case 11: // the slices the bases were frozen from are the caller's again
				if len(image) > 0 {
					image[arg*len(image)/256] = ^uint64(0)
				}
			case 12: // map the leading bytes of a block shared
				if b, fb := p.live(sel); b != nil {
					p.cow.MarkSharedBytes(b, uint64(arg)*64)
					fb.markShared(uint64(arg) * 64)
				}
			}
			checkView(t, "process view", proc, procFlat)
			p.check("after op")
			for _, s := range kept {
				s.check(t, "kept snapshot")
			}
		}
	})
}

// A rank that stores into one granule of a large segment holds, snapshots
// and restores that one granule; every modelled size is still the
// segment's.
func TestSegmentMovesOnlyMaterialisedPages(t *testing.T) {
	const words = 1 << 18 // a 2 MiB data segment
	h := NewHeap(0)
	b, err := h.AllocSegment(FreezeSegment(nil, words).View(), "pie-data-segment")
	if err != nil {
		t.Fatal(err)
	}
	if b.Size != words*8 || h.LiveBytes() != words*8 || b.Words.ownedWords() != 0 {
		t.Fatalf("fresh view: size %d live %d owned %d", b.Size, h.LiveBytes(), b.Words.ownedWords())
	}
	*b.Words.Word(700) = 7 // granule 10
	b.Touch()
	if b.Words.ownedWords() != granuleWords {
		t.Fatalf("one store materialised %d words, want one granule", b.Words.ownedWords())
	}
	snap := h.Serialize()
	if snap.Bytes() != words*8 || snap.DeltaBytes() != words*8 {
		t.Fatalf("snapshot models %d/%d bytes, want the full segment %d", snap.Bytes(), snap.DeltaBytes(), words*8)
	}
	if got := snap.Blocks[0].Words.ownedWords(); got != granuleWords {
		t.Fatalf("snapshot copied %d words, want one granule", got)
	}
	*b.Words.Word(700) = 8
	if got := snap.Blocks[0].Words.Load(700); got != 7 {
		t.Fatalf("snapshot saw a later store: %d", got)
	}
	r := Restore(snap).Lookup(b.Addr)
	if r.Words.Load(700) != 7 || r.Words.Load(0) != 0 || r.Words.ownedWords() != granuleWords {
		t.Fatalf("restored view: word %d, owned %d", r.Words.Load(700), r.Words.ownedWords())
	}
}

// TestFrozenBaseHoldsOnlyItsPrefix pins the host form of a base: a
// 2 MiB segment frozen from a 321-word prefix stores those words and
// implies the zero bulk, and Scan passes only what the view holds — the
// prefix, then one owned granule more after a store.
func TestFrozenBaseHoldsOnlyItsPrefix(t *testing.T) {
	const words, prefix = 1 << 18, 321
	init := make([]uint64, prefix)
	for i := range init {
		init[i] = uint64(i) + 1
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	view := FreezeSegment(init, words).View()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 16<<10 {
		t.Errorf("freezing a %d-word prefix of a %d-word segment and viewing it allocated %d bytes, want under 16 KiB", prefix, words, got)
	}
	scanned := func() int {
		n := 0
		view.Scan(func(_ int, w []uint64) { n += len(w) })
		return n
	}
	if got := scanned(); got != prefix {
		t.Errorf("Scan of a fresh view passed %d words, want the %d-word prefix", got, prefix)
	}
	*view.Word(700) = 7
	if got := scanned(); got != prefix+granuleWords {
		t.Errorf("Scan after one store passed %d words, want the prefix and one granule, %d", got, prefix+granuleWords)
	}
}
