package ampi

import "testing"

// The hash-indexed queues must reproduce the seed's linear-scan
// semantics exactly: earliest arrival wins on the message side,
// earliest posting wins on the receive side, wildcards included.

func msg(src, tag, comm int, internal bool) *message {
	return &message{src: src, tag: tag, comm: comm, internal: internal}
}

func req(src, tag, comm int, internal bool) *Request {
	return &Request{src: src, tag: tag, comm: comm, internal: internal}
}

func TestMsgStoreExactFIFO(t *testing.T) {
	var s msgStore
	a, b := msg(1, 5, 0, false), msg(1, 5, 0, false)
	s.add(a)
	s.add(b)
	if got := s.take(req(1, 5, 0, false)); got != a {
		t.Fatal("exact take did not return the earliest arrival")
	}
	if got := s.take(req(1, 5, 0, false)); got != b {
		t.Fatal("second take did not return the second arrival")
	}
	if s.take(req(1, 5, 0, false)) != nil || s.n != 0 {
		t.Fatal("store not empty after draining")
	}
}

func TestMsgStoreWildcardTakesEarliestAcrossBuckets(t *testing.T) {
	var s msgStore
	first := msg(2, 9, 0, false)
	s.add(msg(1, 5, 0, true)) // internal: invisible to user wildcards
	s.add(first)
	s.add(msg(3, 9, 0, false))
	s.add(msg(2, 4, 0, false))

	if got := s.take(req(AnySource, 9, 0, false)); got != first {
		t.Fatalf("wildcard-source take returned src=%d tag=%d, want the earliest tag-9 message", got.src, got.tag)
	}
	// Next any/any match must be the tag-9 from src 3 (arrived before
	// the tag-4 message).
	if got := s.take(req(AnySource, AnyTag, 0, false)); got.src != 3 || got.tag != 9 {
		t.Fatalf("any/any take returned src=%d tag=%d, want src=3 tag=9", got.src, got.tag)
	}
	if got := s.take(req(2, AnyTag, 0, false)); got.tag != 4 {
		t.Fatalf("wildcard-tag take returned tag=%d, want 4", got.tag)
	}
	// Only the internal message remains; user wildcards must not see it.
	if s.take(req(AnySource, AnyTag, 0, false)) != nil {
		t.Fatal("user wildcard matched an internal message")
	}
	if s.take(req(1, 5, 0, true)) == nil {
		t.Fatal("internal receive missed the internal message")
	}
}

func TestMsgStoreCommIsolation(t *testing.T) {
	var s msgStore
	s.add(msg(0, 3, 7, false))
	if s.take(req(0, 3, 8, false)) != nil {
		t.Fatal("matched across communicators")
	}
	if s.take(req(AnySource, AnyTag, 8, false)) != nil {
		t.Fatal("wildcard matched across communicators")
	}
	if s.take(req(AnySource, AnyTag, 7, false)) == nil {
		t.Fatal("wildcard missed a queued message in its communicator")
	}
}

func TestReqStoreEarliestPostedWins(t *testing.T) {
	var s reqStore
	wild := req(AnySource, 5, 0, false)
	exact := req(1, 5, 0, false)
	s.add(wild)  // posted first
	s.add(exact) // posted second, same envelope coverage
	if got := s.match(msg(1, 5, 0, false)); got != wild {
		t.Fatal("message matched the later-posted exact receive over the earlier wildcard")
	}
	if got := s.match(msg(1, 5, 0, false)); got != exact {
		t.Fatal("second message missed the remaining exact receive")
	}
	if s.match(msg(1, 5, 0, false)) != nil || s.n != 0 {
		t.Fatal("store not empty after draining")
	}
}

func TestReqStoreExactBeforeLaterWildcard(t *testing.T) {
	var s reqStore
	exact := req(1, 5, 0, false)
	wild := req(AnySource, AnyTag, 0, false)
	s.add(exact)
	s.add(wild)
	if got := s.match(msg(1, 5, 0, false)); got != exact {
		t.Fatal("message skipped the earlier-posted exact receive")
	}
	if got := s.match(msg(2, 6, 0, false)); got != wild {
		t.Fatal("message missed the wildcard receive")
	}
}

func TestStoresSpillAndDrainBackToLinear(t *testing.T) {
	// Push both stores well past spillThreshold so the indexed paths
	// run, then drain in an order that exercises FIFO across the
	// linear→indexed boundary, and check they fall back to linear mode.
	const n = 3 * spillThreshold
	var ms msgStore
	for i := 0; i < n; i++ {
		ms.add(msg(i%4, i%7, 0, false))
	}
	if !ms.spilled {
		t.Fatalf("msgStore not spilled at %d entries", n)
	}
	var prevSeq uint64
	for i := 0; i < n; i++ {
		m := ms.take(req(AnySource, AnyTag, 0, false))
		if m == nil {
			t.Fatalf("take %d returned nil", i)
		}
		if i > 0 && m.seq <= prevSeq {
			t.Fatalf("take %d broke arrival order: seq %d after %d", i, m.seq, prevSeq)
		}
		prevSeq = m.seq
	}
	if ms.n != 0 || ms.spilled {
		t.Fatalf("msgStore did not drain back to linear mode: n=%d spilled=%v", ms.n, ms.spilled)
	}

	var rs reqStore
	reqs := make([]*Request, n)
	for i := 0; i < n; i++ {
		if i%5 == 0 {
			reqs[i] = req(AnySource, i%7, 0, false)
		} else {
			reqs[i] = req(i%4, i%7, 0, false)
		}
		rs.add(reqs[i])
	}
	if !rs.spilled {
		t.Fatalf("reqStore not spilled at %d entries", n)
	}
	for i := 0; i < n; i++ {
		// Each message's envelope matches exactly one remaining receive
		// pattern family; earliest-posted must win.
		got := rs.match(&message{src: reqs[i].src, tag: reqs[i].tag, comm: 0})
		if reqs[i].src == AnySource {
			// A wildcard receive may be beaten only by an earlier entry;
			// reqs[i] is the earliest matching by construction order.
			if got == nil || got.seq > reqs[i].seq {
				t.Fatalf("match %d returned a later receive", i)
			}
		} else if got != reqs[i] {
			t.Fatalf("match %d did not return the earliest posted receive", i)
		}
	}
	if rs.n != 0 || rs.spilled {
		t.Fatalf("reqStore did not drain back to linear mode: n=%d spilled=%v", rs.n, rs.spilled)
	}
}

func TestReqStoreNoMatchLeavesQueue(t *testing.T) {
	var s reqStore
	s.add(req(1, 5, 0, false))
	if s.match(msg(1, 6, 0, false)) != nil {
		t.Fatal("tag mismatch matched")
	}
	if s.match(msg(2, 5, 0, false)) != nil {
		t.Fatal("source mismatch matched")
	}
	if s.match(msg(1, 5, 0, true)) != nil {
		t.Fatal("internal flag mismatch matched")
	}
	if s.n != 1 {
		t.Fatalf("queue length %d after failed matches, want 1", s.n)
	}
}
