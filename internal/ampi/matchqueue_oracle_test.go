package ampi

import "testing"

// The match queues as they were before each side became one linear
// slice: linear while shallow, and past spillThreshold entries a hash
// index keyed by the full match envelope, with wildcard receives on a
// side list and sequence stamps deciding FIFO order across buckets.
// They are kept as the oracle FuzzMatchQueue holds msgStore and
// reqStore to. Messages then carried a communicator id and an
// "internal" flag; here the id is always 0 (MPI_COMM_WORLD) and the
// flag is what it always equalled, a negative tag other than AnyTag.

const spillThreshold = 16

type matchKey struct {
	comm     int
	src      int
	tag      int
	internal bool
}

// oracleInternal is the flag collective plumbing carried.
func oracleInternal(tag int) bool { return tag < 0 && tag != AnyTag }

// oracleMsg and oracleReq are a queued entry and its sequence stamp.
type oracleMsg struct {
	m   *message
	seq uint64
}

type oracleReq struct {
	q   *Request
	seq uint64
}

func keyOfMsg(m *message) matchKey {
	return matchKey{comm: 0, src: m.src, tag: m.tag, internal: oracleInternal(m.tag)}
}

func matchEnvelope(q *Request, m *message) bool {
	if oracleInternal(q.tag) != oracleInternal(m.tag) {
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

type oracleMsgStore struct {
	small   []oracleMsg
	buckets map[matchKey][]oracleMsg
	spilled bool
	spills  int
	seq     uint64
	n       int
}

func (s *oracleMsgStore) add(m *message) {
	e := oracleMsg{m, s.seq}
	s.seq++
	s.n++
	if !s.spilled {
		if len(s.small) < spillThreshold {
			s.small = append(s.small, e)
			return
		}
		s.spill()
	}
	k := keyOfMsg(m)
	s.buckets[k] = append(s.buckets[k], e)
}

func (s *oracleMsgStore) spill() {
	s.spills++
	if s.buckets == nil {
		s.buckets = make(map[matchKey][]oracleMsg)
	}
	for _, e := range s.small {
		k := keyOfMsg(e.m)
		s.buckets[k] = append(s.buckets[k], e)
	}
	s.small = s.small[:0]
	s.spilled = true
}

func (s *oracleMsgStore) popHead(k matchKey) *message {
	b := s.buckets[k]
	m := b[0].m
	if len(b) == 1 {
		delete(s.buckets, k)
	} else {
		s.buckets[k] = b[1:]
	}
	s.shrink()
	return m
}

func (s *oracleMsgStore) shrink() {
	s.n--
	if s.n == 0 {
		s.spilled = false
	}
}

func (s *oracleMsgStore) take(q *Request) *message {
	if s.n == 0 {
		return nil
	}
	if !s.spilled {
		for i, e := range s.small {
			if matchEnvelope(q, e.m) {
				s.small = append(s.small[:i], s.small[i+1:]...)
				s.shrink()
				return e.m
			}
		}
		return nil
	}
	if q.src != AnySource && q.tag != AnyTag {
		k := matchKey{comm: 0, src: q.src, tag: q.tag, internal: oracleInternal(q.tag)}
		if len(s.buckets[k]) == 0 {
			return nil
		}
		return s.popHead(k)
	}
	var bestKey matchKey
	var best *oracleMsg
	for k, b := range s.buckets {
		if k.internal != oracleInternal(q.tag) {
			continue
		}
		if q.src != AnySource && q.src != k.src {
			continue
		}
		if q.tag != AnyTag && q.tag != k.tag {
			continue
		}
		if e := &b[0]; best == nil || e.seq < best.seq {
			best, bestKey = e, k
		}
	}
	if best == nil {
		return nil
	}
	return s.popHead(bestKey)
}

type oracleReqStore struct {
	small   []oracleReq
	exact   map[matchKey][]oracleReq
	wild    []oracleReq
	spilled bool
	spills  int
	seq     uint64
	n       int
}

func (s *oracleReqStore) add(q *Request) {
	e := oracleReq{q, s.seq}
	s.seq++
	s.n++
	if !s.spilled {
		if len(s.small) < spillThreshold {
			s.small = append(s.small, e)
			return
		}
		s.spill()
	}
	s.index(e)
}

func (s *oracleReqStore) index(e oracleReq) {
	if q := e.q; q.src != AnySource && q.tag != AnyTag {
		k := matchKey{comm: 0, src: q.src, tag: q.tag, internal: oracleInternal(q.tag)}
		s.exact[k] = append(s.exact[k], e)
	} else {
		s.wild = append(s.wild, e)
	}
}

func (s *oracleReqStore) spill() {
	s.spills++
	if s.exact == nil {
		s.exact = make(map[matchKey][]oracleReq)
	}
	for _, e := range s.small {
		s.index(e)
	}
	s.small = s.small[:0]
	s.spilled = true
}

func (s *oracleReqStore) shrink() {
	s.n--
	if s.n == 0 {
		s.spilled = false
	}
}

func (s *oracleReqStore) match(m *message) *Request {
	if s.n == 0 {
		return nil
	}
	if !s.spilled {
		for i, e := range s.small {
			if matchEnvelope(e.q, m) {
				s.small = append(s.small[:i], s.small[i+1:]...)
				s.shrink()
				return e.q
			}
		}
		return nil
	}
	k := keyOfMsg(m)
	var exact *oracleReq
	if b := s.exact[k]; len(b) > 0 {
		exact = &b[0]
	}
	wildIdx := -1
	for i, e := range s.wild {
		if matchEnvelope(e.q, m) {
			wildIdx = i
			break
		}
	}
	if exact != nil && (wildIdx < 0 || exact.seq < s.wild[wildIdx].seq) {
		q := exact.q
		if b := s.exact[k]; len(b) == 1 {
			delete(s.exact, k)
		} else {
			s.exact[k] = b[1:]
		}
		s.shrink()
		return q
	}
	if wildIdx >= 0 {
		q := s.wild[wildIdx].q
		s.wild = append(s.wild[:wildIdx], s.wild[wildIdx+1:]...)
		s.shrink()
		return q
	}
	return nil
}

// Fuzz operations, two bytes each: the low two bits of the first byte
// pick the operation, the rest a source (0-7, or 8 for AnySource on a
// receive); the second byte picks a tag from fuzzTags (AnyTag on a
// receive only).
const (
	opArrive = iota // an unexpected message queues
	opPost          // a receive is posted
	opTake          // a receive is posted against the unexpected queue
	opMatch         // a message arrives against the posted receives
)

var fuzzTags = [...]int{0, 1, 2, 3, collTagBase - 1, collTagBase - 2, collTagBase - 3, AnyTag}

// fuzzDepth bounds each queue; deep enough for the oracle to spill.
const fuzzDepth = 64

func fuzzOp(op, src, tagIdx int) []byte { return []byte{byte(op | src<<2), byte(tagIdx)} }

// driveMatchQueues replays ops against both implementations, failing on
// the first operation where they return different entries, and reports
// how often the oracle spilled into its hash index.
func driveMatchQueues(t testing.TB, ops []byte) (spills int) {
	t.Helper()
	var ms msgStore
	var rs reqStore
	var oms oracleMsgStore
	var ors oracleReqStore
	for i := 0; i+1 < len(ops); i += 2 {
		op, src := int(ops[i]&3), int(ops[i]>>2)%9
		tag := fuzzTags[int(ops[i+1])%len(fuzzTags)]
		msgSrc, msgTag := src%8, tag
		if msgTag == AnyTag {
			msgTag = 0
		}
		if src == 8 {
			src = AnySource
		}
		switch op {
		case opArrive:
			if len(ms) < fuzzDepth {
				m := msg(msgSrc, msgTag)
				ms.add(m)
				oms.add(m)
			}
		case opPost:
			if len(rs) < fuzzDepth {
				q := req(src, tag)
				rs.add(q)
				ors.add(q)
			}
		case opTake:
			q := req(src, tag)
			if got, want := ms.take(q), oms.take(q); got != want {
				t.Fatalf("op %d: take(src %d, tag %d) = %p, oracle %p", i/2, src, tag, got, want)
			}
		case opMatch:
			m := msg(msgSrc, msgTag)
			if got, want := rs.match(m), ors.match(m); got != want {
				t.Fatalf("op %d: match(src %d, tag %d) = %p, oracle %p", i/2, msgSrc, msgTag, got, want)
			}
		}
		if len(ms) != oms.n || len(rs) != ors.n {
			t.Fatalf("op %d: depths %d/%d, oracle %d/%d", i/2, len(ms), len(rs), oms.n, ors.n)
		}
	}
	return oms.spills + ors.spills
}

// FuzzMatchQueue holds the linear queues to the hash-indexed oracle
// over random interleavings of arrivals, posts, takes and matches.
func FuzzMatchQueue(f *testing.F) {
	// Fill each side 48 deep and drain it, as a receive-heavy fan-in
	// would: both oracle stores spill and drain back to linear mode.
	const n = 48
	var fill []byte
	for i := range n {
		fill = append(fill, fuzzOp(opArrive, i%4, i%7)...)
	}
	for i := range n {
		fill = append(fill, fuzzOp(opTake, i%4, i%7)...)
	}
	for i := range n {
		src := i % 4
		if i%5 == 0 {
			src = 8
		}
		fill = append(fill, fuzzOp(opPost, src, i%7)...)
	}
	for i := range n {
		fill = append(fill, fuzzOp(opMatch, i%4, i%7)...)
	}
	if driveMatchQueues(f, fill) < 2 {
		f.Fatal("the fill-and-drain seed no longer spills both oracle stores")
	}
	f.Add(fill)
	// A collective message ahead of a user one, taken by a wildcard
	// receive; then a collective receive posted behind a wildcard.
	var mixed []byte
	for _, op := range [][3]int{
		{opArrive, 1, 4}, {opArrive, 0, 0}, {opTake, 8, 7}, {opTake, 1, 4},
		{opPost, 8, 7}, {opPost, 2, 5}, {opMatch, 2, 5}, {opMatch, 3, 1},
	} {
		mixed = append(mixed, fuzzOp(op[0], op[1], op[2])...)
	}
	f.Add(mixed)
	f.Fuzz(func(t *testing.T, ops []byte) { driveMatchQueues(t, ops) })
}
