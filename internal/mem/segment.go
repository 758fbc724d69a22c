package mem

import (
	"fmt"
	"sort"
)

// pageWords is the copy-on-write granule of a Segment: one 4 KiB page.
const pageWords = PageSize / 8

// SegmentBase is a program image's immutable data segment: frozen once,
// then read by every view of it — the loader's instances, the ranks'
// forks of them, and every snapshot of those. Nothing writes it after
// FreezeSegment. The host holds only the initialised prefix; every word
// past it is zero and costs nothing until a view writes its page.
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

// View returns a fresh copy-on-write view that owns no page yet.
func (b *SegmentBase) View() *Segment {
	if metrics.bytesShared != nil {
		metrics.bytesShared.Add(uint64(b.n) * 8)
	}
	return &Segment{base: b}
}

// Segment is one copy-on-write view of a SegmentBase: the host holds
// only the pages written through the view, while whatever carries it (a
// loaded instance, a heap block) keeps its full modelled size.
type Segment struct {
	base *SegmentBase
	// pages holds the materialised pages, sorted by page index.
	pages []segPage
}

type segPage struct {
	idx   int
	words []uint64
}

// Len returns the segment's length in words.
func (s *Segment) Len() int { return s.base.n }

// find returns the position of page p in s.pages and whether it is there.
func (s *Segment) find(p int) (int, bool) {
	k := sort.Search(len(s.pages), func(k int) bool { return s.pages[k].idx >= p })
	return k, k < len(s.pages) && s.pages[k].idx == p
}

// Load reads word i without materialising its page.
func (s *Segment) Load(i int) uint64 {
	if k, ok := s.find(i / pageWords); ok {
		return s.pages[k].words[i%pageWords]
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

// Word returns the cell of word i, first materialising its page — zeros
// with the overlapping part of the base's prefix copied in — if the view
// does not own it yet. The pointer stays valid for the life of the
// view; a caller that writes through it into a heap block's view must
// Touch the block, as with Block.Words.
func (s *Segment) Word(i int) *uint64 {
	p := i / pageWords
	k, ok := s.find(p)
	if !ok {
		lo := p * pageWords
		w := make([]uint64, min(lo+pageWords, s.base.n)-lo)
		if lo < len(s.base.init) {
			copy(w, s.base.init[lo:])
		}
		s.pages = append(s.pages, segPage{})
		copy(s.pages[k+1:], s.pages[k:])
		s.pages[k] = segPage{idx: p, words: w}
		if metrics.pagesMaterialized != nil {
			metrics.pagesMaterialized.Inc()
		}
	}
	return &s.pages[k].words[i%pageWords]
}

// Scan calls fn with the view's words in index order, as runs: first
// is the index of words[0], and a run is either one owned page or a
// stretch of the base's prefix between owned pages. Every word Scan
// does not pass is zero. fn must not write words. Reading a whole
// segment this way costs one pass over what the host holds; Load per
// word would search the page list each time.
func (s *Segment) Scan(fn func(first int, words []uint64)) {
	init, next := s.base.init, 0
	for _, pg := range s.pages {
		lo := pg.idx * pageWords
		if end := min(lo, len(init)); next < end {
			fn(next, init[next:end])
		}
		fn(lo, pg.words)
		next = lo + len(pg.words)
	}
	if next < len(init) {
		fn(next, init[next:])
	}
}

// ownedWords counts the words in materialised pages: what a copy of the
// view moves on the host.
func (s *Segment) ownedWords() int {
	n := 0
	for _, pg := range s.pages {
		n += len(pg.words)
	}
	return n
}

// Fork returns an independent view with the same content: the base is
// shared, materialised pages are copied.
func (s *Segment) Fork() *Segment {
	arena := make([]uint64, s.ownedWords())
	return s.clone(&arena)
}

// clone is Fork with the page copies carved from arena, which the
// caller sized from ownedWords. A nil view clones to nil.
func (s *Segment) clone(arena *[]uint64) *Segment {
	if s == nil {
		return nil
	}
	c := &Segment{base: s.base, pages: make([]segPage, len(s.pages))}
	for k, pg := range s.pages {
		c.pages[k] = segPage{idx: pg.idx, words: carve(arena, pg.words)}
	}
	if metrics.bytesShared != nil {
		metrics.bytesShared.Add(uint64(s.Len()-s.ownedWords()) * 8)
	}
	return c
}

// carve copies src into the front of arena and returns the copy, capped
// so appends never run into the next carving. A nil src stays nil.
func carve(arena *[]uint64, src []uint64) []uint64 {
	if src == nil {
		return nil
	}
	w := (*arena)[:len(src):len(src)]
	*arena = (*arena)[len(src):]
	copy(w, src)
	return w
}

// AllocSegment allocates a block the size of src whose payload is a
// fork of it (Block.Seg; Block.Words stays nil).
func (h *Heap) AllocSegment(src *Segment, label string) (*Block, error) {
	b, err := h.allocRaw(uint64(src.Len())*8, label)
	if err != nil {
		return nil, err
	}
	b.Seg = src.Fork()
	return b, nil
}
