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

// worldComm returns the rank's cached MPI_COMM_WORLD; all rank-level
// collectives delegate to it so there is exactly one implementation of
// each algorithm.
func (r *Rank) worldComm() *Comm {
	if r.world0 == nil {
		r.world0 = r.CommWorld()
	}
	return r.world0
}

// collBegin snapshots the start of a rank-level collective for the
// tracer; on is false (and the snapshot free) when tracing is off.
func (r *Rank) collBegin() (start sim.Time, on bool) {
	if r.world.tracer == nil {
		return 0, false
	}
	return r.thread.Now(), true
}

// collEnd emits the collective's span. The span covers the whole call
// in the rank's virtual time, inclusive of the sends, receives, and
// waits the algorithm performs inside it.
func (r *Rank) collEnd(on bool, start sim.Time, op int32) {
	if !on {
		return
	}
	r.world.tracer.Emit(trace.Event{Time: start, Dur: r.thread.Now() - start, Kind: trace.KindColl,
		PE: int32(r.pe.ID), VP: int32(r.vp), Peer: -1, Aux: op})
}

// Allreduce is Reduce to rank 0 followed by Bcast.
func (r *Rank) Allreduce(data []float64, op *Op) []float64 {
	start, on := r.collBegin()
	out := r.worldComm().Allreduce(data, op)
	r.collEnd(on, start, trace.CollAllreduce)
	return out
}

// Barrier blocks until every rank has entered it.
func (r *Rank) Barrier() {
	start, on := r.collBegin()
	r.worldComm().Barrier()
	r.collEnd(on, start, trace.CollBarrier)
}
