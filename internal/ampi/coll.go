package ampi

import (
	"provirt/internal/sim"
	"provirt/internal/trace"
)

// Collective message tags live in a reserved negative space; each
// collective instance gets a unique sequence so back-to-back
// collectives never cross-match. MPI requires all ranks to call
// collectives in the same order, which keeps the per-rank sequence
// numbers aligned.
const collTagBase = -1_000_000

// nextCollTag allocates the tag of the rank's next collective step.
func (r *Rank) nextCollTag() int {
	r.collSeq++
	return collTagBase - r.collSeq
}

// Allreduce is a reduce to rank 0 followed by a broadcast from it.
func (r *Rank) Allreduce(data []float64, op *Op) []float64 {
	return r.allreduce(trace.CollAllreduce, data, op)
}

// Barrier blocks until every rank has entered it.
func (r *Rank) Barrier() { r.allreduce(trace.CollBarrier, nil, OpSum) }

// allreduce runs both collectives and traces the call as one span of
// kind code, inclusive of the sends, receives and waits inside it.
func (r *Rank) allreduce(code int32, data []float64, op *Op) []float64 {
	tr := r.world.tracer
	var start sim.Time
	if tr != nil {
		start = r.thread.Now()
	}
	acc := r.reduce(data, op)
	out := r.bcast(acc, len(data))
	if acc != nil {
		// Only the root holds a reduction result here, and bcast has
		// copied it into the outgoing payloads and out.
		r.world.pool().releaseAfterOp(op, acc)
	}
	if tr != nil {
		tr.Emit(trace.Event{Time: start, Dur: r.thread.Now() - start, Kind: trace.KindColl,
			PE: int32(r.pe.ID), VP: int32(r.vp), Peer: -1, Aux: code})
	}
	return out
}

// reduce combines every rank's contribution up a binomial tree rooted
// at rank 0, children's subtrees largest first, and returns the result
// at rank 0 (nil elsewhere).
func (r *Rank) reduce(data []float64, op *Op) []float64 {
	w, s, size := r.world, r.world.pool(), r.Size()
	tag := r.nextCollTag()
	acc := s.copyBuf(data)
	parent, limit := binomialNode(r.vp, size)
	top := 0
	for m := 1; m < limit && r.vp+m < size; m <<= 1 {
		top = m
	}
	for m := top; m > 0; m >>= 1 {
		part := r.Wait(r.irecv(r.vp+m, tag, s.getBuf(len(data))))
		acc = w.applyOp(op, r, part, acc)
		s.releaseAfterOp(op, part)
	}
	if parent >= 0 {
		r.sendMsg(parent, tag, acc, 0)
		s.releaseAfterOp(op, acc)
		return nil
	}
	return acc
}

// bcast sends rank 0's data down the same binomial tree and returns
// every rank's copy of it. Each rank's copy is a new slice of n values,
// the one allocation the collective hands to its caller; a non-root
// rank receives straight into it and relays it onward.
func (r *Rank) bcast(data []float64, n int) []float64 {
	size := r.Size()
	tag := r.nextCollTag()
	var out []float64
	if n > 0 {
		out = make([]float64, n)
	}
	parent, limit := binomialNode(r.vp, size)
	if parent < 0 {
		out = append(out[:0], data...)
	} else {
		out = r.Wait(r.irecv(parent, tag, out))
	}
	for m := 1; m < limit && r.vp+m < size; m <<= 1 {
		r.sendMsg(r.vp+m, tag, out, 0)
	}
	return out
}
