package mem

import (
	"fmt"
	"sort"
)

// granuleWords is the host copy-on-write unit of a Segment, 512 bytes;
// every charge and modelled size still counts in PageSize pages.
const granuleWords = 64

// SegmentBase is an immutable payload that copy-on-write views read
// through: a program image's data segment, a plan's TLS or
// privatized-cell block, a constructor's heap object, or Alloc's zeros.
// Nothing writes it once frozen. The host holds only the initialised
// prefix; every word past it is zero and costs nothing until a view
// writes its granule.
type SegmentBase struct {
	init []uint64 // the initialised prefix
	n    int      // the length in words
}

// FreezeSegment returns an immutable base of the given length in words
// (at least len(init)) whose leading cells are a copy of init and whose
// remainder is zero. It stores the copy of init and implies the zero
// bulk. Later writes to init never show through any view.
func FreezeSegment(init []uint64, words int) *SegmentBase {
	return &SegmentBase{init: append([]uint64(nil), init...), n: max(words, len(init))}
}

// AdoptSegment is FreezeSegment of words without the copy: the base is
// words itself, so nothing may write them afterwards. Blocks built for
// the purpose — a plan's TLS and privatized cells, a constructor's
// object, a checkpoint's TLS — are frozen this way.
func AdoptSegment(words []uint64) *SegmentBase {
	return &SegmentBase{init: words, n: len(words)}
}

// View returns a fresh copy-on-write view that owns no granule yet.
func (b *SegmentBase) View() *Segment {
	if metrics.bytesShared != nil {
		metrics.bytesShared.Add(uint64(b.n) * 8)
	}
	return &Segment{base: b}
}

// Segment is one copy-on-write view of a SegmentBase: the host holds
// only the granules written through the view, while whatever carries it
// (a loaded instance, a heap block) keeps its full modelled size.
type Segment struct {
	base     *SegmentBase
	granules []segGranule // the materialised granules, sorted by idx
}

type segGranule struct {
	idx   int
	words []uint64
}

// Len returns the segment's length in words; a nil view has none.
func (s *Segment) Len() int {
	if s == nil {
		return 0
	}
	return s.base.n
}

// find returns granule g's position in s.granules and whether it is there.
func (s *Segment) find(g int) (int, bool) {
	k := sort.Search(len(s.granules), func(k int) bool { return s.granules[k].idx >= g })
	return k, k < len(s.granules) && s.granules[k].idx == g
}

// Load reads word i without materialising its granule.
func (s *Segment) Load(i int) uint64 {
	if k, ok := s.find(i / granuleWords); ok {
		return s.granules[k].words[i%granuleWords]
	}
	b := s.base
	switch {
	case i < len(b.init):
		return b.init[i]
	case i < b.n:
		return 0
	}
	panic(fmt.Sprintf("mem: segment word %d past length %d", i, b.n))
}

// Word returns the cell of word i, first materialising its granule —
// zeros with the overlapping part of the base's prefix copied in — if the
// view does not own it yet. The pointer stays valid for the life of the
// view; a caller that writes through it into a heap block's payload must
// Touch the block, or the next Serialize reuses the captured view.
func (s *Segment) Word(i int) *uint64 {
	g := i / granuleWords
	k, ok := s.find(g)
	if !ok {
		lo := g * granuleWords
		w := make([]uint64, min(lo+granuleWords, s.base.n)-lo)
		if lo < len(s.base.init) {
			copy(w, s.base.init[lo:])
		}
		s.granules = append(s.granules, segGranule{})
		copy(s.granules[k+1:], s.granules[k:])
		s.granules[k] = segGranule{idx: g, words: w}
		if metrics.granulesMaterialized != nil {
			metrics.granulesMaterialized.Inc()
		}
	}
	return &s.granules[k].words[i%granuleWords]
}

// Scan calls fn with the view's words in index order, as runs: first
// is the index of words[0], and a run is either one owned granule or a
// stretch of the base's prefix between owned granules. Every word Scan
// does not pass is zero. fn must not write words. Reading a whole
// segment this way costs one pass over what the host holds; Load per
// word would search the granule list each time.
func (s *Segment) Scan(fn func(first int, words []uint64)) {
	init, next := s.base.init, 0
	for _, gr := range s.granules {
		lo := gr.idx * granuleWords
		if end := min(lo, len(init)); next < end {
			fn(next, init[next:end])
		}
		fn(lo, gr.words)
		next = lo + len(gr.words)
	}
	if next < len(init) {
		fn(next, init[next:])
	}
}

// ownedWords counts the words in materialised granules: what a copy of
// the view moves on the host. A nil view owns none.
func (s *Segment) ownedWords() int {
	n := 0
	if s != nil {
		for _, gr := range s.granules {
			n += len(gr.words)
		}
	}
	return n
}

// clone returns an independent view with the same content: the base is
// shared, and the materialised granules are copied into the front of
// arena, which the caller sized from ownedWords. A nil view clones to
// nil.
func (s *Segment) clone(arena *[]uint64) *Segment {
	if s == nil {
		return nil
	}
	c := &Segment{base: s.base, granules: make([]segGranule, len(s.granules))}
	for k, gr := range s.granules {
		n := len(gr.words)
		w := (*arena)[:n:n] // capped so appends never reach the next copy
		*arena = (*arena)[n:]
		copy(w, gr.words)
		c.granules[k] = segGranule{idx: gr.idx, words: w}
	}
	if metrics.bytesShared != nil {
		metrics.bytesShared.Add(uint64(s.Len()-s.ownedWords()) * 8)
	}
	return c
}

// AllocSegment allocates a block the size of src whose payload is an
// independent copy-on-write clone of it: the block reads through to
// src's base and holds a copy of only the granules src owns.
func (h *Heap) AllocSegment(src *Segment, label string) (*Block, error) {
	b, err := h.allocRaw(uint64(src.Len())*8, label)
	if err != nil {
		return nil, err
	}
	arena := make([]uint64, src.ownedWords())
	b.Words = src.clone(&arena)
	return b, nil
}
