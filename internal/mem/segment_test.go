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

// procPair is a loaded instance's view of the frozen base next to its
// oracle, a flat copy of the words the base was frozen from, zero past
// the prefix.
type procPair struct {
	view *Segment
	flat []uint64
}

// check compares the process view with its oracle word for word. Scan's
// runs must ascend without overlap and equal the oracle; every word no
// run covers must read 0 through Load and be 0 in the oracle.
func (pp procPair) check(t *testing.T, when string) {
	t.Helper()
	zeros := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if got := pp.view.Load(i); got != 0 || pp.flat[i] != 0 {
				t.Fatalf("%s: word %d is in no Scan run but reads %d, flat oracle has %d", when, i, got, pp.flat[i])
			}
		}
	}
	next := 0
	pp.view.Scan(func(first int, words []uint64) {
		if first < next || len(words) == 0 || first+len(words) > len(pp.flat) {
			t.Fatalf("%s: Scan run starts at %d with %d words, previous ended at %d", when, first, len(words), next)
		}
		zeros(next, first)
		for i, got := range words {
			if want := pp.flat[first+i]; got != want {
				t.Fatalf("%s: process word %d = %d, flat oracle has %d", when, first+i, got, want)
			}
		}
		next = first + len(words)
	})
	zeros(next, len(pp.flat))
}

// heapPair drives a rank's copy-on-write heap and its oracle in lockstep.
// The oracle is the representation the view replaced: the same block
// sizes at the same addresses, with the segment held as a flat []uint64
// copy of the process's words at the moment the rank forked them.
type heapPair struct {
	t         *testing.T
	cow, flat *Heap
	segAddr   uint64
	small     []uint64 // addresses of live scratch blocks, same in both
	// touched holds the addresses of blocks allocated or touched since
	// the last Serialize, Handoff or Restore.
	touched map[uint64]bool
}

// snapPair is a snapshot of both heaps plus the segment content it must
// keep showing however the heaps change afterwards.
type snapPair struct {
	cow, flat *Snapshot
	want      []uint64
}

func newHeapPair(t *testing.T, proc procPair) *heapPair {
	p := &heapPair{t: t, cow: NewHeap(3), flat: NewHeap(3), touched: map[uint64]bool{}}
	for _, h := range []*Heap{p.cow, p.flat} {
		b, err := h.AllocBallast(8192, "code")
		if err != nil {
			t.Fatal(err)
		}
		p.touched[b.Addr] = true
	}
	cb, err := p.cow.AllocSegment(proc.view, "data")
	if err != nil {
		t.Fatal(err)
	}
	fb, err := p.flat.Alloc(uint64(len(proc.flat))*8, "data")
	if err != nil {
		t.Fatal(err)
	}
	copy(fb.Words, proc.flat)
	if cb.Addr != fb.Addr || cb.Size != fb.Size || cb.Words != nil {
		t.Fatalf("segment block %+v does not mirror flat block %+v", cb, fb)
	}
	p.segAddr = cb.Addr
	p.touched[cb.Addr] = true
	return p
}

// touchedBytes is the resident span of the live blocks in touched: the
// delta the next Serialize or Handoff must report.
func (p *heapPair) touchedBytes() uint64 {
	var n uint64
	for addr := range p.touched {
		if b := p.flat.Lookup(addr); b != nil && b.Addr == addr {
			n += b.residentSpan()
		}
	}
	return n
}

func (p *heapPair) seg() (*Block, *Block) {
	return p.cow.Lookup(p.segAddr), p.flat.Lookup(p.segAddr)
}

// check compares the live segment word for word and the heaps' accounting.
func (p *heapPair) check(when string) {
	p.t.Helper()
	cb, fb := p.seg()
	for i, want := range fb.Words {
		if got := cb.Seg.Load(i); got != want {
			p.t.Fatalf("%s: live word %d = %d, flat oracle has %d", when, i, got, want)
		}
	}
	if p.cow.LiveBytes() != p.flat.LiveBytes() || p.cow.ResidentBytes() != p.flat.ResidentBytes() {
		p.t.Fatalf("%s: live/resident %d/%d, oracle %d/%d", when,
			p.cow.LiveBytes(), p.cow.ResidentBytes(), p.flat.LiveBytes(), p.flat.ResidentBytes())
	}
}

func (p *heapPair) serialize(when string) snapPair {
	p.t.Helper()
	want := p.touchedBytes()
	clear(p.touched)
	s := snapPair{cow: p.cow.Serialize(), flat: p.flat.Serialize()}
	_, fb := p.seg()
	s.want = append([]uint64(nil), fb.Words...)
	if s.cow.Bytes() != s.flat.Bytes() || s.cow.DeltaBytes() != s.flat.DeltaBytes() {
		p.t.Fatalf("%s: snapshot bytes/delta %d/%d, oracle %d/%d", when,
			s.cow.Bytes(), s.cow.DeltaBytes(), s.flat.Bytes(), s.flat.DeltaBytes())
	}
	if s.flat.DeltaBytes() != want {
		p.t.Fatalf("%s: delta %d, want the %d bytes touched since the last snapshot", when, s.flat.DeltaBytes(), want)
	}
	if !reflect.DeepEqual(s.cow.FreeSpans, s.flat.FreeSpans) || s.cow.Brk != s.flat.Brk {
		p.t.Fatalf("%s: free spans %v brk %#x, oracle %v brk %#x", when,
			s.cow.FreeSpans, s.cow.Brk, s.flat.FreeSpans, s.flat.Brk)
	}
	s.check(p.t, when)
	return s
}

// check verifies the snapshot still shows the content it captured, in
// both representations, block for block.
func (s snapPair) check(t *testing.T, when string) {
	t.Helper()
	if len(s.cow.Blocks) != len(s.flat.Blocks) {
		t.Fatalf("%s: %d blocks, oracle %d", when, len(s.cow.Blocks), len(s.flat.Blocks))
	}
	for i := range s.cow.Blocks {
		cb, fb := &s.cow.Blocks[i], &s.flat.Blocks[i]
		if cb.Addr != fb.Addr || cb.Size != fb.Size || cb.Label != fb.Label {
			t.Fatalf("%s: block %d is %+v, oracle %+v", when, i, cb, fb)
		}
		if cb.Seg == nil {
			if !reflect.DeepEqual(cb.Words, fb.Words) {
				t.Fatalf("%s: block %d words differ from oracle", when, i)
			}
			continue
		}
		for j, want := range s.want {
			if got := cb.Seg.Load(j); got != want || fb.Words[j] != want {
				t.Fatalf("%s: snapshot word %d = %d (oracle %d), captured %d", when, j, got, fb.Words[j], want)
			}
		}
	}
}

// FuzzSegmentView holds the whole chain of copy-on-write views — frozen
// base, a process's view of it, a rank's fork of that, the rank's
// snapshots, heaps restored from them, hand-offs — to the flat copies
// they replaced.
// prefix picks how much of the base is initialised (prefixWords), so
// the zero bulk the host never stores is read, forked and written too.
// Each input byte pair is one operation on the views and their oracles;
// after every operation the process view, the live rank segment, the
// heaps' accounting and every kept snapshot must agree with the oracle.
// So a write at one level never shows at another, a fork of a view that
// owns granules equals a flat copy of it, and a write to the slice the base
// was frozen from never shows anywhere.
func FuzzSegmentView(f *testing.F) {
	for prefix := range uint8(len(prefixWords)) {
		f.Add(prefix, []byte{})
		f.Add(prefix, []byte{0, 5, 2, 0, 0, 200, 2, 0, 3, 0, 0, 9, 2, 0})                             // store, snap, store, snap, restore, store, snap
		f.Add(prefix, []byte{0, 1, 4, 0, 0, 255, 4, 0, 1, 0, 4, 0, 2, 0, 3, 1})                       // migrate loop with stores and a bare Touch
		f.Add(prefix, []byte{5, 3, 5, 9, 6, 0, 2, 0, 6, 1, 4, 0, 5, 1, 2, 0, 3, 0})                   // scratch alloc/free around snapshots
		f.Add(prefix, []byte{7, 0, 0, 0, 7, 1, 2, 0, 7, 2, 4, 0, 7, 3, 3, 0, 0, 128})                 // writes to the base's source slice
		f.Add(prefix, []byte{8, 0, 8, 130, 9, 0, 0, 0, 8, 1, 2, 0, 9, 0, 8, 131, 4, 0, 3, 0, 0, 131}) // process stores around two forks, a snapshot and a restore
		f.Add(prefix, []byte{8, 255, 9, 0, 0, 60, 8, 60, 2, 0})                                       // process stores past the prefix, then before it, with a fork between
		// Process and rank stores in descending granule order, so each
		// materialised granule goes in front of the list, then one between.
		f.Add(prefix, []byte{8, 250, 8, 130, 8, 10, 9, 0, 0, 240, 0, 160, 0, 80, 0, 20, 0, 120, 2, 0, 0, 100, 3, 0})
	}
	f.Fuzz(func(t *testing.T, prefix uint8, ops []byte) {
		if len(ops) > 128 {
			ops = ops[:128]
		}
		image := make([]uint64, prefixWords[int(prefix)%len(prefixWords)])
		for i := range image {
			image[i] = uint64(i)*3 + 1
		}
		proc := procPair{view: FreezeSegment(image, segWords).View(), flat: make([]uint64, segWords)}
		copy(proc.flat, image)
		p := newHeapPair(t, proc)
		var kept []snapPair
		for n := 0; n+1 < len(ops); n += 2 {
			op, arg := ops[n]%10, int(ops[n+1])
			switch op {
			case 0: // store through the view, as VarHandle.Store does
				i := arg * segWords / 256
				cb, fb := p.seg()
				*cb.Seg.Word(i), fb.Words[i] = uint64(n)<<8|uint64(arg), uint64(n)<<8|uint64(arg)
				cb.Touch()
				fb.Touch()
				p.touched[p.segAddr] = true
			case 1: // dirty without writing (a charge-only access batch)
				cb, fb := p.seg()
				cb.Touch()
				fb.Touch()
				p.touched[p.segAddr] = true
			case 2: // checkpoint: serialize and keep
				if len(kept) < 6 {
					kept = append(kept, p.serialize("serialize"))
				}
			case 3: // restart from a kept checkpoint
				if len(kept) > 0 {
					s := kept[arg%len(kept)]
					p.cow, p.flat = Restore(s.cow), Restore(s.flat)
					clear(p.touched)
				}
			case 4: // migrate: hand the heaps off, keeping them
				want := p.touchedBytes()
				clear(p.touched)
				cbytes, cdelta := p.cow.Handoff()
				fbytes, fdelta := p.flat.Handoff()
				if cbytes != fbytes || cdelta != fdelta || fbytes != p.flat.ResidentBytes() {
					t.Fatalf("hand-off bytes/delta %d/%d, oracle %d/%d, resident %d", cbytes, cdelta, fbytes, fdelta, p.flat.ResidentBytes())
				}
				if fdelta != want {
					t.Fatalf("hand-off delta %d, want the %d bytes touched since the last snapshot", fdelta, want)
				}
			case 5: // scratch allocation, so free lists and reuse take part
				size := uint64(arg%7+1) * 16
				cb, cerr := p.cow.Alloc(size, "scratch")
				fb, ferr := p.flat.Alloc(size, "scratch")
				if cerr != nil || ferr != nil || cb.Addr != fb.Addr {
					t.Fatalf("scratch alloc diverged: %v %v", cerr, ferr)
				}
				p.small = append(p.small, cb.Addr)
				p.touched[cb.Addr] = true
			case 6:
				if len(p.small) > 0 {
					k := arg % len(p.small)
					addr := p.small[k]
					p.small = append(p.small[:k], p.small[k+1:]...)
					// A restore may have rolled the block back out of existence.
					if cerr, ferr := p.cow.Free(addr), p.flat.Free(addr); (cerr == nil) != (ferr == nil) {
						t.Fatalf("free %#x diverged: %v vs %v", addr, cerr, ferr)
					}
				}
			case 7: // the slice the base was frozen from is the caller's again
				if len(image) > 0 {
					image[arg*len(image)/256] = ^uint64(0)
				}
			case 8: // store through the process's view, as a ctor or an unprivatized store does
				i := arg * segWords / 256
				*proc.view.Word(i), proc.flat[i] = uint64(n)<<8|uint64(arg)|1<<32, uint64(n)<<8|uint64(arg)|1<<32
			case 9: // a new rank forks the process's view as it now stands
				p = newHeapPair(t, proc)
			}
			proc.check(t, "after op")
			p.check("after op")
			for _, s := range kept {
				s.check(t, "kept snapshot")
			}
		}
		cb, _ := p.seg()
		if owned := cb.Seg.ownedWords(); owned > segWords {
			t.Fatalf("view owns %d words of a %d-word segment", owned, segWords)
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
	if b.Size != words*8 || h.LiveBytes() != words*8 || b.Seg.ownedWords() != 0 {
		t.Fatalf("fresh view: size %d live %d owned %d", b.Size, h.LiveBytes(), b.Seg.ownedWords())
	}
	*b.Seg.Word(700) = 7 // granule 10
	b.Touch()
	if b.Seg.ownedWords() != granuleWords {
		t.Fatalf("one store materialised %d words, want one granule", b.Seg.ownedWords())
	}
	snap := h.Serialize()
	if snap.Bytes() != words*8 || snap.DeltaBytes() != words*8 {
		t.Fatalf("snapshot models %d/%d bytes, want the full segment %d", snap.Bytes(), snap.DeltaBytes(), words*8)
	}
	if got := snap.Blocks[0].Seg.ownedWords(); got != granuleWords {
		t.Fatalf("snapshot copied %d words, want one granule", got)
	}
	*b.Seg.Word(700) = 8
	if got := snap.Blocks[0].Seg.Load(700); got != 7 {
		t.Fatalf("snapshot saw a later store: %d", got)
	}
	r := Restore(snap).Lookup(b.Addr)
	if r.Seg.Load(700) != 7 || r.Seg.Load(0) != 0 || r.Seg.ownedWords() != granuleWords {
		t.Fatalf("restored view: word %d, owned %d", r.Seg.Load(700), r.Seg.ownedWords())
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
