package ampi

import "slices"

// Message matching. MPI matching is FIFO per (source, tag): a receive
// completes against the earliest matching message, and an arriving
// message against the earliest matching posted receive. Each side is
// one slice in arrival (posting) order, scanned linearly: the queues
// the workloads build stay shallow — a binomial root's fan-in is the
// deepest unexpected queue any registered workload reaches at
// mem.MaxRanks ranks (TestMatchQueuesStayShallow) — and a scan of a
// handful of entries beats any index. FuzzMatchQueue holds both sides
// to the hash-indexed stores they replaced.

// matches reports whether a posted request accepts a message.
// Collective plumbing travels on negative tags (collTagBase - seq) and
// user tags are non-negative, so AnyTag matches user messages only.
func matches(q *Request, m *message) bool {
	if q.src != AnySource && q.src != m.src {
		return false
	}
	if q.tag == AnyTag {
		return m.tag >= 0
	}
	return q.tag == m.tag
}

// msgStore holds a rank's unexpected messages in arrival order.
type msgStore []*message

// add queues an unexpected message.
func (s *msgStore) add(m *message) {
	*s = append(*s, m)
	metrics.unexpectedTotal.Inc()
	metrics.unexpectedDepth.SetMax(int64(len(*s)))
}

// take removes and returns the earliest-arrived message the request
// accepts, or nil.
func (s *msgStore) take(q *Request) *message {
	if len(*s) == 0 {
		return nil
	}
	metrics.probeDepth.Observe(uint64(len(*s)))
	for i, m := range *s {
		if matches(q, m) {
			*s = slices.Delete(*s, i, i+1)
			return m
		}
	}
	return nil
}

// reqStore holds a rank's posted receives in posting order.
type reqStore []*Request

// add posts a receive.
func (s *reqStore) add(q *Request) { *s = append(*s, q) }

// match removes and returns the earliest-posted receive accepting m,
// or nil.
func (s *reqStore) match(m *message) *Request {
	if len(*s) == 0 {
		return nil
	}
	metrics.probeDepth.Observe(uint64(len(*s)))
	for i, q := range *s {
		if matches(q, m) {
			*s = slices.Delete(*s, i, i+1)
			return q
		}
	}
	return nil
}
