package ampi

import "testing"

// TestScratchSizeClasses pins getBuf's size classes: once each class
// has seen a buffer, every length is served from the pool, with room
// for all of it, whatever length the class's buffer was first made for.
func TestScratchSizeClasses(t *testing.T) {
	lengths := []int{1, 36, 37, 64, 65, 4096}
	s := new(scratch)
	for _, n := range lengths {
		s.putBuf(s.getBuf(n))
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, n := range lengths {
			b := s.getBuf(n)
			if len(b) != n || cap(b) < n {
				t.Fatalf("getBuf(%d): len %d, cap %d", n, len(b), cap(b))
			}
			s.putBuf(b)
		}
	})
	if allocs != 0 {
		t.Errorf("getBuf/putBuf of lengths %v allocate %.1f objects per run, want 0", lengths, allocs)
	}
}
