package ampi

import (
	"math/bits"
	"sync"
)

// Message-layer scratch. Point-to-point has MPI's buffer semantics: a
// send copies its data into a payload taken from the world's scratch
// set, and the receive copies the payload into the caller's buffer and
// returns it, so every payload goes back when its message completes.
// Collectives take their per-hop scratch from the same set and return it
// as soon as the hop hands the data on. Message envelopes and receive
// requests are recycled through free lists the same way: an envelope at
// match, a request at Wait. In steady state the message path allocates
// nothing.
//
// A scratch set outlives the world that used it: NewWorld takes one from
// a process-wide sync.Pool and World.Run gives it back once every rank
// thread is dead, so the thousands of short worlds of a sweep fill the
// pools once, not once each. A running world owns its set alone and runs
// on one engine thread, so no locking is needed. Nothing pooled reaches
// a result: a buffer is fully overwritten before anything reads it
// (copyBuf, a receive into it), a record is zeroed when it is put back,
// bcast hands its callers fresh slices, and the buffers of user-defined
// operators are left to the garbage collector.

// scratch is one world's message-layer storage.
type scratch struct {
	// bufs[c] holds free buffers of capacity at least 2^c; getBuf takes
	// a length n from class bits.Len(n-1), so any buffer there fits.
	bufs [64][][]float64
	msgs freeList[message]
	reqs freeList[Request]
}

var scratchSets = sync.Pool{New: func() any { return new(scratch) }}

// pool returns the world's scratch set. A world used after Run has
// given its set back gets a fresh one, never a pooled one.
func (w *World) pool() *scratch {
	if w.scratch == nil {
		w.scratch = new(scratch)
	}
	return w.scratch
}

// releaseScratch gives the world's scratch set back to the process. Run
// calls it once no rank thread can touch the set again.
func (w *World) releaseScratch() {
	if w.scratch != nil {
		scratchSets.Put(w.scratch)
		w.scratch = nil
	}
}

// getBuf returns a buffer of length n, nil when n is 0. A new buffer
// gets its class's full capacity, so it serves any length of the class
// when it comes back.
func (s *scratch) getBuf(n int) []float64 {
	if n == 0 {
		return nil
	}
	c := bits.Len(uint(n - 1))
	if last := len(s.bufs[c]) - 1; last >= 0 {
		b := s.bufs[c][last]
		s.bufs[c][last] = nil
		s.bufs[c] = s.bufs[c][:last]
		return b[:n]
	}
	return make([]float64, n, 1<<c)
}

// putBuf returns a buffer to the set, in the largest class its capacity
// covers. The caller must not touch b afterwards.
func (s *scratch) putBuf(b []float64) {
	if cap(b) == 0 {
		return
	}
	c := bits.Len(uint(cap(b))) - 1
	s.bufs[c] = append(s.bufs[c], b[:0])
}

// copyBuf is the pooled equivalent of append([]float64(nil), src...):
// it preserves nil-ness for empty inputs (barrier payloads stay nil).
func (s *scratch) copyBuf(src []float64) []float64 {
	b := s.getBuf(len(src))
	copy(b, src)
	return b
}

// releaseAfterOp returns a reduction scratch buffer to the set when the
// operator cannot have retained it. Built-in operators are elementwise
// and never alias their input; user-defined functions make no such
// promise, so their buffers are left to the garbage collector.
func (s *scratch) releaseAfterOp(op *Op, b []float64) {
	if op.builtin {
		s.putBuf(b)
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
