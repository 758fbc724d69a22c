package mem

import "sort"

// pageWords is the copy-on-write granule of a Segment: one 4 KiB page.
const pageWords = PageSize / 8

// SegmentBase is a process's immutable data-segment image: frozen once,
// then read by every rank's Segment view in the process and by every
// snapshot of those views. Nothing writes it after FreezeSegment.
type SegmentBase struct{ words []uint64 }

// FreezeSegment copies words into a new immutable base, so later writes
// to the caller's slice never show through any view.
func FreezeSegment(words []uint64) *SegmentBase {
	return &SegmentBase{words: append([]uint64(nil), words...)}
}

// Segment is one rank's copy-on-write view of a SegmentBase: the host
// holds only the pages the rank has written, while the block that
// carries the view keeps its full modelled size. It is the payload of a
// block made by Heap.AllocSegment.
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
func (s *Segment) Len() int { return len(s.base.words) }

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
	return s.base.words[i]
}

// Word returns the cell of word i, first copying its page out of the
// base if the view does not own it yet. The pointer stays valid for the
// life of the view; a caller that writes through it must Touch the
// block, as with Block.Words.
func (s *Segment) Word(i int) *uint64 {
	p := i / pageWords
	k, ok := s.find(p)
	if !ok {
		lo := p * pageWords
		hi := min(lo+pageWords, len(s.base.words))
		s.pages = append(s.pages, segPage{})
		copy(s.pages[k+1:], s.pages[k:])
		s.pages[k] = segPage{idx: p, words: append([]uint64(nil), s.base.words[lo:hi]...)}
		if metrics.pagesMaterialized != nil {
			metrics.pagesMaterialized.Inc()
		}
	}
	return &s.pages[k].words[i%pageWords]
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

// clone returns an independent view with the same content: the base is
// shared, materialised pages are copied through arena. A nil view clones
// to nil.
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

// AllocSegment allocates a block the size of base whose payload is a
// fresh copy-on-write view of it (Block.Seg; Block.Words stays nil).
func (h *Heap) AllocSegment(base *SegmentBase, label string) (*Block, error) {
	b, err := h.allocRaw(uint64(len(base.words))*8, label)
	if err != nil {
		return nil, err
	}
	b.Seg = &Segment{base: base}
	if metrics.bytesShared != nil {
		metrics.bytesShared.Add(b.Size)
	}
	return b, nil
}
