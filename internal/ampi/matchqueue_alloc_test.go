package ampi

import "testing"

// The adaptive match queues promise that the common shallow case — a
// ping-pong or halo exchange with one or two pending entries — runs
// entirely in linear mode with zero steady-state allocations. These
// tests pin that with testing.AllocsPerRun so an accidental
// interface boxing or slice regrowth on the hot path fails CI.

// TestMsgStoreLinearModeAllocs: add then take of an unexpected message
// in linear mode allocates nothing once the small slice has capacity.
func TestMsgStoreLinearModeAllocs(t *testing.T) {
	var s msgStore
	m := &message{src: 3, tag: 7, comm: WorldComm}
	q := &Request{src: 3, tag: 7, comm: WorldComm}

	// Warm up the small-slice capacity.
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
		t.Errorf("linear-mode msgStore add/take allocates %.1f objects per run, want 0", allocs)
	}
	if taken == 0 {
		t.Fatal("no messages matched")
	}
	if s.spilled || s.n != 0 {
		t.Fatalf("store should be empty and linear: spilled=%v n=%d", s.spilled, s.n)
	}
}

// TestReqStoreLinearModeAllocs: post then match of a receive in linear
// mode allocates nothing once the small slice has capacity.
func TestReqStoreLinearModeAllocs(t *testing.T) {
	var s reqStore
	m := &message{src: 3, tag: 7, comm: WorldComm}
	q := &Request{src: 3, tag: 7, comm: WorldComm}

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
		t.Errorf("linear-mode reqStore add/match allocates %.1f objects per run, want 0", allocs)
	}
	if matched == 0 {
		t.Fatal("no receives matched")
	}
	if s.spilled || s.n != 0 {
		t.Fatalf("store should be empty and linear: spilled=%v n=%d", s.spilled, s.n)
	}
}
