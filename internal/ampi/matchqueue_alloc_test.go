package ampi

import "testing"

// The match queues promise that the common shallow case — a ping-pong
// or halo exchange with one or two pending entries — runs with zero
// steady-state allocations. These tests pin that with
// testing.AllocsPerRun so an accidental interface boxing or slice
// regrowth on the hot path fails CI.

// TestMsgStoreLinearModeAllocs: add then take of an unexpected message
// allocates nothing once the queue has capacity.
func TestMsgStoreLinearModeAllocs(t *testing.T) {
	var s msgStore
	m := &message{src: 3, tag: 7}
	q := &Request{src: 3, tag: 7}

	// Warm up the queue's capacity.
	s.add(m)
	if s.take(q) != m {
		t.Fatal("warmup take failed")
	}

	taken := 0
	allocs := testing.AllocsPerRun(1000, func() {
		s.add(m)
		if s.take(q) != nil {
			taken++
		}
	})
	if allocs != 0 {
		t.Errorf("msgStore add/take allocates %.1f objects per run, want 0", allocs)
	}
	if taken == 0 {
		t.Fatal("no messages matched")
	}
	if len(s) != 0 {
		t.Fatalf("store should be empty, holds %d", len(s))
	}
}

// TestReqStoreLinearModeAllocs: post then match of a receive allocates
// nothing once the queue has capacity.
func TestReqStoreLinearModeAllocs(t *testing.T) {
	var s reqStore
	m := &message{src: 3, tag: 7}
	q := &Request{src: 3, tag: 7}

	s.add(q)
	if s.match(m) != q {
		t.Fatal("warmup match failed")
	}

	matched := 0
	allocs := testing.AllocsPerRun(1000, func() {
		s.add(q)
		if s.match(m) != nil {
			matched++
		}
	})
	if allocs != 0 {
		t.Errorf("reqStore add/match allocates %.1f objects per run, want 0", allocs)
	}
	if matched == 0 {
		t.Fatal("no receives matched")
	}
	if len(s) != 0 {
		t.Fatalf("store should be empty, holds %d", len(s))
	}
}
