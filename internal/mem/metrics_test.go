package mem

import (
	"testing"

	"provirt/internal/obs"
)

// Snapshot instruments: the second serialization of an untouched heap
// must show full bytes without delta bytes — the incremental win the
// counters exist to expose — and dirty blocks must count as copies.
func TestSnapshotObsCounts(t *testing.T) {
	r := obs.NewRegistry()
	EnableObs(r)
	defer EnableObs(nil)

	h := NewHeap(0)
	a, _ := h.Alloc(256, "a")
	h.Alloc(512, "b")
	*a.Words.Word(0) = 1 // one granule for the arena to copy
	a.Touch()

	s1 := h.Serialize()
	if got := metrics.snapshots.Value(); got != 1 {
		t.Fatalf("mem_snapshots_total = %d, want 1", got)
	}
	if metrics.fullBytes.Value() != s1.Bytes() {
		t.Fatalf("full bytes = %d, want %d", metrics.fullBytes.Value(), s1.Bytes())
	}
	if metrics.deltaBytes.Value() != s1.DeltaBytes() || s1.DeltaBytes() == 0 {
		t.Fatalf("delta bytes = %d, snapshot delta %d", metrics.deltaBytes.Value(), s1.DeltaBytes())
	}
	firstCopied := metrics.blocksCopied.Value()
	if firstCopied == 0 {
		t.Fatal("first snapshot copied no blocks")
	}

	// Untouched heap: every block reuses its captured view, delta stays 0.
	s2 := h.Serialize()
	if s2.DeltaBytes() != 0 {
		t.Fatalf("untouched heap delta = %d", s2.DeltaBytes())
	}
	if got := metrics.deltaBytes.Value(); got != s1.DeltaBytes() {
		t.Fatalf("delta counter moved on clean snapshot: %d", got)
	}
	if metrics.blocksReused.Value() == 0 {
		t.Fatal("clean snapshot reused no blocks")
	}
	if metrics.blocksCopied.Value() != firstCopied {
		t.Fatalf("clean snapshot copied blocks: %d -> %d", firstCopied, metrics.blocksCopied.Value())
	}

	// Touch one block: exactly its bytes become delta again.
	a.Touch()
	s3 := h.Serialize()
	if s3.DeltaBytes() == 0 || s3.DeltaBytes() >= s1.DeltaBytes() {
		t.Fatalf("dirty-block delta = %d (first %d)", s3.DeltaBytes(), s1.DeltaBytes())
	}
	if got := metrics.blocksCopied.Value(); got != firstCopied+1 {
		t.Fatalf("dirty snapshot copied %d blocks, want 1", got-firstCopied)
	}
	if metrics.arenaBytes.Value() == 0 {
		t.Fatal("arena bytes not accounted")
	}
}

// Segment instruments: host bytes next to the modelled snapshot bytes. A
// view that wrote one granule of a 16-granule segment materialises one
// granule, moves its 512 B through the arena per copy, and reports the
// rest as shared — while the full/delta counters still model the whole
// block.
func TestSegmentObsCounts(t *testing.T) {
	const words, granuleBytes = 16 * granuleWords, granuleWords * 8
	base := FreezeSegment(nil, words).View()

	// Off by default: nothing registered, nothing counted, no panic.
	h := NewHeap(0)
	b, _ := h.AllocSegment(base, "data")
	*b.Words.Word(0) = 1
	h.Serialize()
	if metrics.granulesMaterialized != nil || metrics.bytesShared != nil {
		t.Fatal("segment instruments are on without EnableObs")
	}

	r := obs.NewRegistry()
	EnableObs(r)
	defer EnableObs(nil)

	h = NewHeap(0)
	b, _ = h.AllocSegment(base, "data")
	if got := metrics.bytesShared.Value(); got != words*8 {
		t.Fatalf("a fresh view shares %d bytes, want the whole segment %d", got, words*8)
	}
	*b.Words.Word(3) = 1
	*b.Words.Word(4) = 2 // same granule
	b.Touch()
	if got := metrics.granulesMaterialized.Value(); got != 1 {
		t.Fatalf("mem_segment_granules_materialized_total = %d, want 1", got)
	}

	snap := h.Serialize()
	if metrics.fullBytes.Value() != words*8 || metrics.deltaBytes.Value() != words*8 {
		t.Fatalf("modelled full/delta = %d/%d, want %d", metrics.fullBytes.Value(), metrics.deltaBytes.Value(), words*8)
	}
	if got := metrics.arenaBytes.Value(); got != granuleBytes {
		t.Fatalf("arena bytes = %d, want the one materialised granule, %d", got, granuleBytes)
	}
	if got := metrics.bytesShared.Value(); got != words*8+(words*8-granuleBytes) {
		t.Fatalf("mem_segment_bytes_shared_total = %d after one copy", got)
	}
	Restore(snap)
	if got := metrics.bytesShared.Value(); got != words*8+2*(words*8-granuleBytes) {
		t.Fatalf("mem_segment_bytes_shared_total = %d after restore", got)
	}
	if got := metrics.granulesMaterialized.Value(); got != 1 {
		t.Fatalf("copies materialised granules: %d", got)
	}
}
