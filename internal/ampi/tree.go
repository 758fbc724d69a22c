package ampi

// Binomial-tree shape, shared by the two collective implementations:
// the ULT-level algorithms in coll.go (each rank sends/receives real
// messages along its tree edges) and the flat model in flat.go (each
// edge is one modelled arrival; an engine event only where the edge
// crosses a lookahead domain). Keeping the shape in one place pins
// the two paths to the same topology, so the flat model's round
// structure is exactly what the message-level path executes.

// binomialNode returns the rank's parent in a binomial tree over size
// entries rooted at rank 0, and the child iteration limit: rel's
// children are rel+m for m = 1, 2, 4, ... while m < limit and
// rel+m < size. The root's parent is -1.
func binomialNode(rel, size int) (parent, limit int) {
	if rel == 0 {
		return -1, size // root: any power of two below size
	}
	lsb := rel & -rel
	return rel - lsb, lsb
}

// binomialChildCount counts rel's children without allocating.
func binomialChildCount(rel, size int) int {
	_, limit := binomialNode(rel, size)
	n := 0
	for m := 1; m < limit && rel+m < size; m <<= 1 {
		n++
	}
	return n
}
