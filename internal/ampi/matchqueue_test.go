package ampi

import "testing"

// The match queues implement MPI's matching order: earliest arrival
// wins on the message side, earliest posting wins on the receive side,
// wildcards included, and collective tags are invisible to AnyTag.

func msg(src, tag int) *message { return &message{src: src, tag: tag} }

func req(src, tag int) *Request { return &Request{src: src, tag: tag} }

func TestMsgStoreExactFIFO(t *testing.T) {
	var s msgStore
	a, b := msg(1, 5), msg(1, 5)
	s.add(a)
	s.add(b)
	if got := s.take(req(1, 5)); got != a {
		t.Fatal("exact take did not return the earliest arrival")
	}
	if got := s.take(req(1, 5)); got != b {
		t.Fatal("second take did not return the second arrival")
	}
	if s.take(req(1, 5)) != nil || len(s) != 0 {
		t.Fatal("store not empty after draining")
	}
}

func TestMsgStoreWildcardTakesEarliestAcrossBuckets(t *testing.T) {
	var s msgStore
	first := msg(2, 9)
	s.add(msg(1, collTagBase-1)) // collective: invisible to user wildcards
	s.add(first)
	s.add(msg(3, 9))
	s.add(msg(2, 4))

	if got := s.take(req(AnySource, 9)); got != first {
		t.Fatalf("wildcard-source take returned src=%d tag=%d, want the earliest tag-9 message", got.src, got.tag)
	}
	// Next any/any match must be the tag-9 from src 3 (arrived before
	// the tag-4 message).
	if got := s.take(req(AnySource, AnyTag)); got.src != 3 || got.tag != 9 {
		t.Fatalf("any/any take returned src=%d tag=%d, want src=3 tag=9", got.src, got.tag)
	}
	if got := s.take(req(2, AnyTag)); got.tag != 4 {
		t.Fatalf("wildcard-tag take returned tag=%d, want 4", got.tag)
	}
	// Only the collective message remains; user wildcards must not see it.
	if s.take(req(AnySource, AnyTag)) != nil {
		t.Fatal("user wildcard matched a collective message")
	}
	if s.take(req(1, collTagBase-1)) == nil {
		t.Fatal("collective receive missed the collective message")
	}
}

func TestReqStoreEarliestPostedWins(t *testing.T) {
	var s reqStore
	wild := req(AnySource, 5)
	exact := req(1, 5)
	s.add(wild)  // posted first
	s.add(exact) // posted second, same envelope coverage
	if got := s.match(msg(1, 5)); got != wild {
		t.Fatal("message matched the later-posted exact receive over the earlier wildcard")
	}
	if got := s.match(msg(1, 5)); got != exact {
		t.Fatal("second message missed the remaining exact receive")
	}
	if s.match(msg(1, 5)) != nil || len(s) != 0 {
		t.Fatal("store not empty after draining")
	}
}

func TestReqStoreExactBeforeLaterWildcard(t *testing.T) {
	var s reqStore
	exact := req(1, 5)
	wild := req(AnySource, AnyTag)
	s.add(exact)
	s.add(wild)
	if got := s.match(msg(1, 5)); got != exact {
		t.Fatal("message skipped the earlier-posted exact receive")
	}
	if got := s.match(msg(2, 6)); got != wild {
		t.Fatal("message missed the wildcard receive")
	}
}

func TestReqStoreNoMatchLeavesQueue(t *testing.T) {
	var s reqStore
	s.add(req(1, 5))
	s.add(req(AnySource, AnyTag))
	if s.match(msg(1, collTagBase-1)) != nil {
		t.Fatal("collective message matched a user receive")
	}
	if got := s.match(msg(1, 6)); got == nil || got.tag != AnyTag {
		t.Fatal("tag mismatch skipped the exact receive but missed the wildcard")
	}
	if s.match(msg(2, 5)) != nil {
		t.Fatal("source mismatch matched")
	}
	if len(s) != 1 {
		t.Fatalf("queue length %d after failed matches, want 1", len(s))
	}
}
