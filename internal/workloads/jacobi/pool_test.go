package jacobi

import (
	"math"
	"testing"
)

// TestRecycledBlockStartsZero: a block built on storage a rank released
// full of NaNs is zero in every cell of both grids and every face plane,
// but for the Dirichlet plane the rank pins. The released storage is
// larger than the next block in one case and too short for it in the
// other, where it is dropped for a new slab.
func TestRecycledBlockStartsZero(t *testing.T) {
	all := func(dx, dy, dz int) int { return 0 }
	for _, c := range []struct {
		name        string
		dirty, next [3]int
	}{
		{"larger", [3]int{6, 6, 6}, [3]int{6, 5, 4}},
		{"shorter", [3]int{1, 2, 1}, [3]int{6, 6, 6}},
	} {
		t.Run(c.name, func(t *testing.T) {
			// The pool keeps a released block on the releasing
			// processor, and the race detector drops some at random:
			// retry until the next block is the one released.
			reused := false
			for try := 0; try < 100 && !reused; try++ {
				dirty := newBlock(c.dirty[0], c.dirty[1], c.dirty[2], all)
				stale := dirty.slab[:cap(dirty.slab)]
				for i := range stale {
					stale[i] = math.NaN()
				}
				dirty.release()
				b := newBlock(c.next[0], c.next[1], c.next[2], all)
				reused = b == dirty
				b.pinFace()
				face := (b.ny + 2) * (b.nz + 2)
				for name, grid := range map[string][]float64{"u": b.u, "un": b.un} {
					for i, x := range grid {
						if want := float64(min(1, max(0, face-i))); math.Float64bits(x) != math.Float64bits(want) {
							t.Fatalf("%s[%d] = %v, want %v", name, i, x, want)
						}
					}
				}
				for _, h := range b.faces {
					for i, x := range append(h.out, h.in...) {
						if math.Float64bits(x) != 0 {
							t.Fatalf("face %d plane cell %d = %v, want 0", h.face, i, x)
						}
					}
				}
				if len(b.slab) < 2*len(b.u) || cap(b.slab) < len(b.slab) {
					t.Fatalf("slab of %d cells (cap %d) for grids of %d", len(b.slab), cap(b.slab), len(b.u))
				}
				b.release()
			}
			if !reused {
				t.Fatal("no block came back from the pool in 100 tries")
			}
		})
	}
}
