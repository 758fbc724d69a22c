package ampi

// O(1) message matching. MPI matching is FIFO per (source, tag,
// communicator): a receive must complete against the earliest matching
// message, and an arriving message against the earliest matching posted
// receive. The seed implementation kept both sides as flat slices and
// linear-scanned them, which is O(pending) per operation — quadratic on
// the all-to-all and gather fan-ins the harness sweeps run constantly.
//
// Both queues are adaptive. While shallow (the overwhelmingly common
// case — a ping-pong or halo exchange keeps one or two entries pending)
// they stay a flat slice scanned linearly, which beats any index for a
// handful of entries. Past spillThreshold entries they spill into a
// hash index keyed by the full match envelope: messages always carry a
// concrete (source, tag), so an arriving message probes exactly one
// posted-receive bucket, and an exact-key receive probes exactly one
// unexpected-message bucket. Wildcard receives (AnySource / AnyTag) are
// rare and keep a dedicated path: they compare bucket heads (not
// messages) on post, and a short wildcard list on delivery. Every entry
// is stamped with a monotone sequence number, so whenever two
// candidates match, the earlier one wins — exactly the order the
// linear scans produced, keeping runs bit-for-bit identical.

// spillThreshold is the queue depth at which a store switches from
// linear scanning to its hash index. Crossing costs one rebucketing
// pass; the store drops back to linear mode when it drains empty.
const spillThreshold = 16

// matchKey identifies a matching bucket. All fields are concrete (no
// wildcards): messages are keyed by their envelope, and only
// fully-specified receives are bucketed.
type matchKey struct {
	comm     int
	src      int
	tag      int
	internal bool
}

func keyOfMsg(m *message) matchKey {
	return matchKey{comm: m.comm, src: m.src, tag: m.tag, internal: m.internal}
}

// matchEnvelope reports whether a posted request accepts a message.
func matchEnvelope(q *Request, m *message) bool {
	if q.internal != m.internal || q.comm != m.comm {
		return false
	}
	if q.src != AnySource && q.src != m.src {
		return false
	}
	if q.tag != AnyTag && q.tag != m.tag {
		return false
	}
	return true
}

// msgStore holds unexpected messages, FIFO within and across buckets
// (via arrival sequence numbers).
type msgStore struct {
	small   []*message // linear mode, in arrival order
	buckets map[matchKey][]*message
	spilled bool
	seq     uint64
	n       int
}

// add queues an unexpected message.
func (s *msgStore) add(m *message) {
	m.seq = s.seq
	s.seq++
	s.n++
	metrics.unexpectedTotal.Inc()
	metrics.unexpectedDepth.SetMax(int64(s.n))
	if !s.spilled {
		if len(s.small) < spillThreshold {
			s.small = append(s.small, m)
			return
		}
		s.spill()
	}
	k := keyOfMsg(m)
	s.buckets[k] = append(s.buckets[k], m)
}

// spill moves linear-mode entries into the hash index (arrival order is
// preserved: the slice is already seq-sorted).
func (s *msgStore) spill() {
	metrics.spills.Inc()
	if s.buckets == nil {
		s.buckets = make(map[matchKey][]*message)
	}
	for i, m := range s.small {
		k := keyOfMsg(m)
		s.buckets[k] = append(s.buckets[k], m)
		s.small[i] = nil
	}
	s.small = s.small[:0]
	s.spilled = true
}

// popHead removes the head of bucket k.
func (s *msgStore) popHead(k matchKey) *message {
	b := s.buckets[k]
	m := b[0]
	b[0] = nil
	if len(b) == 1 {
		delete(s.buckets, k)
	} else {
		s.buckets[k] = b[1:]
	}
	s.shrink()
	return m
}

// shrink accounts a removal and drops back to linear mode on empty.
func (s *msgStore) shrink() {
	s.n--
	if s.n == 0 {
		s.spilled = false
	}
}

// take removes and returns the earliest-arrived message matching the
// request, or nil. In indexed mode, exact requests are a single map
// probe; wildcard requests compare bucket heads, which is O(distinct
// envelopes), not O(pending messages).
func (s *msgStore) take(q *Request) *message {
	if s.n == 0 {
		return nil
	}
	metrics.probeDepth.Observe(uint64(s.n))
	if !s.spilled {
		for i, m := range s.small {
			if matchEnvelope(q, m) {
				s.small = append(s.small[:i], s.small[i+1:]...)
				s.shrink()
				return m
			}
		}
		return nil
	}
	if q.src != AnySource && q.tag != AnyTag {
		k := matchKey{comm: q.comm, src: q.src, tag: q.tag, internal: q.internal}
		if len(s.buckets[k]) == 0 {
			return nil
		}
		return s.popHead(k)
	}
	var bestKey matchKey
	var best *message
	for k, b := range s.buckets {
		if k.comm != q.comm || k.internal != q.internal {
			continue
		}
		if q.src != AnySource && q.src != k.src {
			continue
		}
		if q.tag != AnyTag && q.tag != k.tag {
			continue
		}
		// Bucket heads are each bucket's earliest arrival; the min
		// sequence across heads is the overall earliest match, so the
		// map's iteration order cannot influence the result.
		if m := b[0]; best == nil || m.seq < best.seq {
			best, bestKey = m, k
		}
	}
	if best == nil {
		return nil
	}
	return s.popHead(bestKey)
}

// reqStore holds posted receives. In indexed mode, fully-specified
// receives are hash-indexed and wildcard receives sit in a short
// ordered list.
type reqStore struct {
	small   []*Request // linear mode, in posting order
	exact   map[matchKey][]*Request
	wild    []*Request
	spilled bool
	seq     uint64
	n       int
}

// add posts a receive.
func (s *reqStore) add(q *Request) {
	q.seq = s.seq
	s.seq++
	s.n++
	if !s.spilled {
		if len(s.small) < spillThreshold {
			s.small = append(s.small, q)
			return
		}
		s.spill()
	}
	s.index(q)
}

func (s *reqStore) index(q *Request) {
	if q.src != AnySource && q.tag != AnyTag {
		k := matchKey{comm: q.comm, src: q.src, tag: q.tag, internal: q.internal}
		s.exact[k] = append(s.exact[k], q)
	} else {
		s.wild = append(s.wild, q)
	}
}

// spill moves linear-mode entries into the hash index (posting order is
// preserved: the slice is already seq-sorted).
func (s *reqStore) spill() {
	metrics.spills.Inc()
	if s.exact == nil {
		s.exact = make(map[matchKey][]*Request)
	}
	for i, q := range s.small {
		s.index(q)
		s.small[i] = nil
	}
	s.small = s.small[:0]
	s.spilled = true
}

// shrink accounts a removal and drops back to linear mode on empty.
func (s *reqStore) shrink() {
	s.n--
	if s.n == 0 {
		s.spilled = false
	}
}

// match removes and returns the earliest-posted receive accepting m,
// or nil. In indexed mode a message's envelope is concrete, so at most
// one exact bucket can match; the bucket head races only the first
// matching wildcard.
func (s *reqStore) match(m *message) *Request {
	if s.n == 0 {
		return nil
	}
	metrics.probeDepth.Observe(uint64(s.n))
	if !s.spilled {
		for i, q := range s.small {
			if matchEnvelope(q, m) {
				s.small = append(s.small[:i], s.small[i+1:]...)
				s.shrink()
				return q
			}
		}
		return nil
	}
	k := keyOfMsg(m)
	var exact *Request
	if b := s.exact[k]; len(b) > 0 {
		exact = b[0]
	}
	wildIdx := -1
	for i, q := range s.wild {
		if matchEnvelope(q, m) {
			wildIdx = i
			break
		}
	}
	if exact != nil && (wildIdx < 0 || exact.seq < s.wild[wildIdx].seq) {
		b := s.exact[k]
		b[0] = nil
		if len(b) == 1 {
			delete(s.exact, k)
		} else {
			s.exact[k] = b[1:]
		}
		s.shrink()
		return exact
	}
	if wildIdx >= 0 {
		q := s.wild[wildIdx]
		s.wild = append(s.wild[:wildIdx], s.wild[wildIdx+1:]...)
		s.shrink()
		return q
	}
	return nil
}
