package mem

import (
	"testing"
)

// sameView reports whether two payloads are one and the same view.
func sameView(a, b *Segment) bool { return a != nil && a == b }

// TestSerializeIncrementalSharing pins the dirty-block contract: a
// clean block's payload is shared with the previous snapshot (no copy),
// a touched block's payload is re-copied, and DeltaBytes reports
// exactly the re-copied sizes.
func TestSerializeIncrementalSharing(t *testing.T) {
	h := NewHeap(0)
	a, _ := h.Alloc(64, "a")
	b, _ := h.Alloc(128, "b")
	ballast, _ := h.AllocBallast(4096, "ballast")
	*a.Words.Word(0), *b.Words.Word(0) = 1, 2

	s1 := h.Serialize()
	if s1.DeltaBytes() != s1.Bytes() {
		t.Fatalf("first snapshot delta %d, want full %d", s1.DeltaBytes(), s1.Bytes())
	}

	s2 := h.Serialize()
	if s2.DeltaBytes() != 0 {
		t.Fatalf("unchanged heap delta %d, want 0", s2.DeltaBytes())
	}
	if !sameView(s2.Blocks[0].Words, s1.Blocks[0].Words) ||
		!sameView(s2.Blocks[1].Words, s1.Blocks[1].Words) {
		t.Fatal("clean blocks were re-copied instead of shared")
	}

	*a.Words.Word(0) = 42
	a.Touch()
	s3 := h.Serialize()
	if s3.DeltaBytes() != a.Size {
		t.Fatalf("delta %d after touching a, want %d", s3.DeltaBytes(), a.Size)
	}
	if sameView(s3.Blocks[0].Words, s2.Blocks[0].Words) {
		t.Fatal("dirty block shared the stale cached copy")
	}
	if !sameView(s3.Blocks[1].Words, s2.Blocks[1].Words) {
		t.Fatal("clean block was re-copied")
	}
	// Snapshot isolation: the earlier snapshots still see the old value.
	if s1.Blocks[0].Words.Load(0) != 1 || s2.Blocks[0].Words.Load(0) != 1 || s3.Blocks[0].Words.Load(0) != 42 {
		t.Fatalf("snapshot isolation broken: %d / %d / %d",
			s1.Blocks[0].Words.Load(0), s2.Blocks[0].Words.Load(0), s3.Blocks[0].Words.Load(0))
	}
	_ = ballast
}

// TestFreePurgesSnapshotCache: recycling a freed block's struct must
// never revive the freed generation's cached payload.
func TestFreePurgesSnapshotCache(t *testing.T) {
	h := NewHeap(0)
	a, _ := h.Alloc(64, "a")
	*a.Words.Word(0) = 7
	h.Serialize()
	if err := h.Free(a.Addr); err != nil {
		t.Fatal(err)
	}
	b, _ := h.Alloc(64, "b") // recycles a's struct and address
	if b.Addr != a.Addr {
		t.Fatalf("expected address reuse, got %#x vs %#x", b.Addr, a.Addr)
	}
	*b.Words.Word(0) = 9
	s := h.Serialize()
	if s.Blocks[len(s.Blocks)-1].Words.Load(0) != 9 {
		t.Fatal("snapshot revived the freed block's stale payload")
	}
}

// TestAllocSplitsOversizedFreeBlock pins the slack-waste fix: a large
// freed span satisfying a small request is split, and the remainder
// stays reusable at the expected address.
func TestAllocSplitsOversizedFreeBlock(t *testing.T) {
	h := NewHeap(0)
	big, _ := h.Alloc(1<<20, "big")
	base := big.Addr
	if err := h.Free(base); err != nil {
		t.Fatal(err)
	}
	small, _ := h.Alloc(8, "small")
	if small.Addr != base || small.Size != 8 {
		t.Fatalf("small block [%#x,+%d), want head of the freed span [%#x,+8)", small.Addr, small.Size, base)
	}
	rest, _ := h.Alloc((1<<20)-8, "rest")
	if rest.Addr != base+8 {
		t.Fatalf("remainder reused at %#x, want %#x", rest.Addr, base+8)
	}
	if h.LiveBytes() != 1<<20 {
		t.Fatalf("live bytes %d, want %d", h.LiveBytes(), 1<<20)
	}
	// Nothing above should have advanced the bump pointer.
	next, _ := h.Alloc(16, "next")
	if next.Addr != base+1<<20 {
		t.Fatalf("bump pointer moved during free-list reuse: %#x", next.Addr)
	}
}

// TestSnapshotRoundTripUnderChurn drives alloc/free/realloc cycles,
// serializes, and checks the restored heap preserves addresses, labels,
// shared flags, payloads, AND allocator behaviour: the original and the
// restored heap must hand out identical addresses for any subsequent
// identical allocation sequence (the Isomalloc invariant across
// migration).
func TestSnapshotRoundTripUnderChurn(t *testing.T) {
	h := NewHeap(4)
	var hold []*Block
	for i := 0; i < 40; i++ {
		b, err := h.Alloc(uint64(16+(i%7)*24), "churn")
		if err != nil {
			t.Fatal(err)
		}
		*b.Words.Word(0) = uint64(i)
		hold = append(hold, b)
		if i%3 == 2 { // free every third, creating reusable spans
			victim := hold[i/3]
			if err := h.Free(victim.Addr); err != nil {
				t.Fatal(err)
			}
		}
	}
	shared, _ := h.AllocBallast(1<<16, "code")
	h.MarkSharedBytes(shared, shared.Size)

	snap := h.Serialize()
	h2 := Restore(snap)

	if len(h2.index) != len(h.index) {
		t.Fatalf("restored %d blocks, want %d", len(h2.index), len(h.index))
	}
	if h2.LiveBytes() != h.LiveBytes() || h2.ResidentBytes() != h.ResidentBytes() {
		t.Fatalf("restored accounting %d/%d, want %d/%d",
			h2.LiveBytes(), h2.ResidentBytes(), h.LiveBytes(), h.ResidentBytes())
	}
	for _, b := range h.index {
		nb := h2.Lookup(b.Addr)
		if nb == nil {
			t.Fatalf("block %#x lost", b.Addr)
		}
		if nb.Size != b.Size || nb.Label != b.Label || nb.SharedBytes != b.SharedBytes {
			t.Fatalf("block %#x metadata diverged: %+v vs %+v", b.Addr, nb, b)
		}
		if b.Words != nil && nb.Words.Load(0) != b.Words.Load(0) {
			t.Fatalf("block %#x payload diverged", b.Addr)
		}
	}
	// Free-list behaviour survives the round trip: identical subsequent
	// allocation sequences produce identical addresses.
	for i := 0; i < 20; i++ {
		size := uint64(8 + (i%5)*40)
		x1, err1 := h.Alloc(size, "post")
		x2, err2 := h2.Alloc(size, "post")
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if x1.Addr != x2.Addr {
			t.Fatalf("post-restore alloc %d diverged: %#x vs %#x", i, x1.Addr, x2.Addr)
		}
	}
}

// TestRestoreSeedsIncrementalCache: a restored heap's own first
// serialize is already incremental — nothing changed since the
// snapshot it was built from.
func TestRestoreSeedsIncrementalCache(t *testing.T) {
	h := NewHeap(5)
	a, _ := h.Alloc(256, "a")
	*a.Words.Word(3) = 11
	snap := h.Serialize()
	h2 := Restore(snap)
	s2 := h2.Serialize()
	if s2.DeltaBytes() != 0 {
		t.Fatalf("restored heap's first snapshot delta %d, want 0", s2.DeltaBytes())
	}
	// And it shares the original snapshot's views rather than copying.
	if !sameView(s2.Blocks[0].Words, snap.Blocks[0].Words) {
		t.Fatal("restored heap re-copied a clean block")
	}
	// Writes on the restored heap must not leak into either snapshot.
	a2 := h2.Lookup(a.Addr)
	*a2.Words.Word(3) = 99
	a2.Touch()
	if snap.Blocks[0].Words.Load(3) != 11 || s2.Blocks[0].Words.Load(3) != 11 {
		t.Fatal("live write leaked into an immutable snapshot")
	}
}

// TestRestoreConsumeAdoptsFreshArrays: a migration's hand-off leaves the
// heap its own live views, so the destination adopts them with no copy,
// while a checkpoint kept from before the move stays intact. The next
// Serialize copies a handed-off block rather than sharing the live
// view, sees writes made after the hand-off, and charges delta only
// for blocks touched since it.
func TestRestoreConsumeAdoptsFreshArrays(t *testing.T) {
	h := NewHeap(6)
	a, _ := h.Alloc(64, "a")
	b, _ := h.Alloc(64, "b")
	*a.Words.Word(0), *b.Words.Word(0) = 1, 2
	aWords, bWords := a.Words, b.Words

	ck := h.Serialize() // kept checkpoint
	*b.Words.Word(0) = 22
	b.Touch()
	if bytes, delta := h.Handoff(); bytes != 128 || delta != 64 {
		t.Fatalf("hand-off moved %d bytes with delta %d, want 128 and only the 64 touched", bytes, delta)
	}
	if h.Lookup(a.Addr) != a || h.Lookup(b.Addr) != b ||
		!sameView(a.Words, aWords) || !sameView(b.Words, bWords) {
		t.Fatal("the hand-off replaced a block or its view instead of leaving it to the heap")
	}
	// Destination writes must not corrupt the kept checkpoint.
	*a.Words.Word(0) = 100
	*b.Words.Word(0) = 200
	b.Touch()
	if ck.Blocks[0].Words.Load(0) != 1 || ck.Blocks[1].Words.Load(0) != 2 {
		t.Fatalf("checkpoint corrupted: %d/%d", ck.Blocks[0].Words.Load(0), ck.Blocks[1].Words.Load(0))
	}
	s := h.Serialize()
	if s.Blocks[1].Words.Load(0) != 200 {
		t.Fatal("serialize after the hand-off missed the block's mutation")
	}
	if sameView(s.Blocks[1].Words, b.Words) {
		t.Fatal("serialize shared a live handed-off view into a snapshot")
	}
	if s.DeltaBytes() != 64 {
		t.Fatalf("serialize after the hand-off charged %d delta bytes, want only the 64 touched", s.DeltaBytes())
	}
}

// TestMigrationLoopStaysIncremental drives the migration lifecycle —
// hand off, mutate, repeat — and checks that after the first
// full-payload round, every later round's wire delta is only the touched
// bytes. A checkpoint after the last hand-off copies the handed-off
// block locally, charges it no delta, and never shares the live view.
func TestMigrationLoopStaysIncremental(t *testing.T) {
	h := NewHeap(8)
	hot, _ := h.Alloc(64, "hot")
	cold, _ := h.Alloc(1<<16, "cold")
	*hot.Words.Word(0), *cold.Words.Word(0) = 1, 100

	for round := 0; round < 4; round++ {
		bytes, delta := h.Handoff()
		if bytes != h.ResidentBytes() {
			t.Fatalf("round %d hands off %d bytes, want the resident %d", round, bytes, h.ResidentBytes())
		}
		if round == 0 {
			if delta != bytes {
				t.Fatalf("round 0 delta %d, want full %d", delta, bytes)
			}
		} else if delta != 64 {
			t.Fatalf("round %d delta %d, want only the 64 touched bytes", round, delta)
		}
		*hot.Words.Word(0)++
		hot.Touch()
	}
	if hot.Words.Load(0) != 5 || cold.Words.Load(0) != 100 {
		t.Fatalf("hot/cold cells %d/%d after 4 rounds, want 5/100", hot.Words.Load(0), cold.Words.Load(0))
	}

	h.Handoff()
	s := h.Serialize()
	if s.DeltaBytes() != 0 {
		t.Fatalf("checkpoint after a hand-off charged %d delta bytes, want 0", s.DeltaBytes())
	}
	if sameView(s.Blocks[0].Words, hot.Words) {
		t.Fatal("checkpoint shared the live view of a handed-off block")
	}
	*hot.Words.Word(0) = 9
	if s.Blocks[0].Words.Load(0) != 5 {
		t.Fatalf("a live write reached the checkpoint: %d, want 5", s.Blocks[0].Words.Load(0))
	}
}

// TestAccountingCountersMatchRescan cross-checks the maintained
// live/resident counters against a full rescan through every mutation
// path: alloc, ballast, split reuse, free, shared marking.
func TestAccountingCountersMatchRescan(t *testing.T) {
	h := NewHeap(7)
	check := func(stage string) {
		var live, resident uint64
		for _, b := range h.index {
			live += b.Size
			resident += b.Size - b.SharedBytes
		}
		if h.LiveBytes() != live || h.ResidentBytes() != resident {
			t.Fatalf("%s: counters %d/%d, rescan %d/%d", stage,
				h.LiveBytes(), h.ResidentBytes(), live, resident)
		}
	}
	a, _ := h.Alloc(100, "a")
	check("alloc")
	code, _ := h.AllocBallast(1<<14, "code")
	check("ballast")
	h.MarkSharedBytes(code, code.Size)
	check("markshared")
	h.MarkSharedBytes(code, code.Size) // idempotent
	check("markshared-again")
	h.Free(a.Addr)
	check("free")
	h.Alloc(24, "split") // splits a's 104-byte span
	check("split")
}
