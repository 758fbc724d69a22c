package ampi

// Per-world pools. Point-to-point has MPI's buffer semantics: a send
// copies its data into a payload taken from the world's buffer pool,
// and the receive copies the payload into the caller's buffer and
// returns it, so every payload goes back to the pool when its message
// completes. Collectives take their per-hop scratch from the same pool
// and return it as soon as the hop hands the data on. Message envelopes
// and receive requests are recycled through free lists the same way:
// an envelope at match, a request at Wait. In steady state the message
// path allocates nothing.
//
// The pools are per-world and the whole world runs on one engine
// thread, so no locking is needed; independent worlds running on
// separate goroutines (the harness's sweep workers, the server's
// leaders) never share a pool.

// getBuf returns a buffer of length n, nil when n is 0.
func (w *World) getBuf(n int) []float64 {
	if n == 0 {
		return nil
	}
	if last := len(w.bufFree) - 1; last >= 0 {
		b := w.bufFree[last]
		w.bufFree[last] = nil
		w.bufFree = w.bufFree[:last]
		if cap(b) >= n {
			return b[:n]
		}
		// Too small for this request; let it go rather than hold
		// undersized buffers forever.
	}
	return make([]float64, n)
}

// putBuf returns a buffer to the pool. The caller must not touch b
// afterwards.
func (w *World) putBuf(b []float64) {
	if cap(b) == 0 {
		return
	}
	w.bufFree = append(w.bufFree, b[:0])
}

// copyBuf is the pooled equivalent of append([]float64(nil), src...):
// it preserves nil-ness for empty inputs (barrier payloads stay nil).
func (w *World) copyBuf(src []float64) []float64 {
	b := w.getBuf(len(src))
	copy(b, src)
	return b
}

// releaseAfterOp returns a reduction scratch buffer to the pool when
// the operator cannot have retained it. Built-in operators are
// elementwise and never alias their input; user-defined functions make
// no such promise, so their buffers are left to the garbage collector.
func (w *World) releaseAfterOp(op *Op, b []float64) {
	if op.builtin {
		w.putBuf(b)
	}
}

// freeList recycles records of one type: get returns a zeroed record,
// put zeroes one and keeps it.
type freeList[T any] []*T

func (l *freeList[T]) get() *T {
	if last := len(*l) - 1; last >= 0 {
		x := (*l)[last]
		(*l)[last] = nil
		*l = (*l)[:last]
		return x
	}
	return new(T)
}

func (l *freeList[T]) put(x *T) {
	var zero T
	*x = zero
	*l = append(*l, x)
}
