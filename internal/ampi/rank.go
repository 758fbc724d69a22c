package ampi

import (
	"fmt"

	"provirt/internal/core"
	"provirt/internal/machine"
	"provirt/internal/sim"
	"provirt/internal/trace"
	"provirt/internal/ult"
)

// Wildcards for Recv/Irecv source and tag matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// message is one point-to-point payload in flight or queued. Envelopes
// and payloads come from the world's scratch set (pool.go): once
// matching copies the payload into the receive buffer, both go back.
type message struct {
	src   int // world rank
	tag   int // >= 0 from Send; < 0 for collective plumbing
	bytes uint64
	data  []float64
	dst   *Rank // receiver, so delivery events need no closure
}

// Request is a posted receive's handle (MPI_Request). Requests come
// from the world's scratch set: Wait frees one, and the handle must not
// be used again.
type Request struct {
	rank     *Rank
	src, tag int
	buf      []float64 // the caller's; cut to the message's length at completion
	done     bool
	blocked  bool // owner thread suspended in Wait on this request
	// The matched message's source and tag, copied out of the envelope
	// so it can be recycled at once.
	gotSrc, gotTag int
}

// Rank is one virtual MPI rank: a migratable user-level thread with a
// privatized view of the program's global state.
type Rank struct {
	world  *World
	vp     int
	ctx    *core.RankContext
	thread *ult.Thread
	// pe is the rank's current (or, mid-migration, destination)
	// processing element. Maintained by the world so that message
	// routing works even while the rank's thread is in flight between
	// schedulers.
	pe *machine.PE

	mailbox msgStore // unexpected messages, FIFO
	waits   reqStore // posted receive requests, FIFO

	// collSeq numbers the rank's collectives; see nextCollTag.
	collSeq int
}

// Rank reports the MPI rank number (MPI_Comm_rank).
func (r *Rank) Rank() int { return r.vp }

// Size reports the number of ranks (MPI_Comm_size).
func (r *Rank) Size() int { return len(r.world.Ranks) }

// Ctx exposes the rank's privatization context: the program's view of
// its global/static variables under the active method.
func (r *Rank) Ctx() *core.RankContext { return r.ctx }

// World returns the job the rank belongs to.
func (r *Rank) World() *World { return r.world }

// PE returns the processing element currently hosting the rank (the
// destination PE while a migration is in flight).
func (r *Rank) PE() *machine.PE { return r.pe }

// Wtime reports the rank's PE-local virtual clock (MPI_Wtime).
func (r *Rank) Wtime() sim.Time { return r.thread.Now() }

// Compute charges d of application compute time to the rank.
func (r *Rank) Compute(d sim.Time) { r.thread.Advance(d) }

// Yield cooperatively yields the PE to other ready ranks.
func (r *Rank) Yield() { r.thread.Yield() }

func (r *Rank) checkUserTag(tag int) {
	if tag < 0 && tag != AnyTag {
		panic(fmt.Sprintf("ampi: rank %d: negative tag %d is reserved", r.vp, tag))
	}
}

func (r *Rank) checkPeer(peer int) {
	if peer < 0 || peer >= len(r.world.Ranks) {
		panic(fmt.Sprintf("ampi: rank %d: peer %d out of range [0,%d)", r.vp, peer, len(r.world.Ranks)))
	}
}

// Send is a standard-mode (eager) send of a message with the given
// payload; bytes models the wire size and may exceed the payload (halo
// exchanges carry modeled bulk without materializing it).
func (r *Rank) Send(dst, tag int, data []float64, bytes uint64) {
	r.checkUserTag(tag)
	if tag == AnyTag {
		panic(fmt.Sprintf("ampi: rank %d: send with wildcard tag", r.vp))
	}
	r.checkPeer(dst)
	r.sendMsg(dst, tag, data, bytes)
}

// sendMsg is the send path Send and the collectives share.
func (r *Rank) sendMsg(dst, tag int, data []float64, bytes uint64) {
	w := r.world
	if bytes == 0 {
		bytes = uint64(len(data)) * 8
		if bytes == 0 {
			bytes = 8
		}
	}
	r.thread.Advance(w.Cluster.Cost.MsgSendOverhead)
	dstRank := w.Ranks[dst]
	s := w.pool()
	m := s.msgs.get()
	m.src, m.tag, m.bytes, m.data, m.dst = r.vp, tag, bytes, s.copyBuf(data), dstRank
	depart := r.thread.Now()
	if w.tracer != nil {
		w.tracer.Emit(trace.Event{Time: depart, Kind: trace.KindSendPost,
			PE: int32(r.pe.ID), VP: int32(r.vp), Peer: int32(dst),
			Tag: int32(tag), Bytes: bytes})
	}
	arrive := w.Cluster.Transfer(depart, r.PE(), dstRank.PE(), bytes)
	w.Cluster.Engine.AtCall(arrive, deliverMsg, m)
}

// deliverMsg is the shared delivery trampoline: the message itself
// carries its destination, so scheduling a delivery allocates no
// closure.
func deliverMsg(x any) {
	m := x.(*message)
	m.dst.deliver(m)
}

// complete copies a matched message's payload into the request's
// buffer and recycles the payload and the envelope. A payload longer
// than the buffer fails the run (MPI_ERR_TRUNCATE) rather than being
// cut silently.
func (r *Rank) complete(q *Request, m *message) {
	w := r.world
	if len(m.data) > len(q.buf) {
		w.fail(fmt.Errorf("ampi: rank %d: message from rank %d with tag %d holds %d values, receive buffer %d (MPI_ERR_TRUNCATE)",
			r.vp, m.src, m.tag, len(m.data), len(q.buf)))
	}
	q.buf = q.buf[:copy(q.buf, m.data)]
	q.gotSrc, q.gotTag = m.src, m.tag
	q.done = true
	s := w.pool()
	s.putBuf(m.data)
	s.msgs.put(m)
}

// deliver lands a message at the rank (runs as an engine event). A
// matching posted receive completes; otherwise the message queues as
// unexpected.
func (r *Rank) deliver(m *message) {
	w := r.world
	if q := r.waits.match(m); q != nil {
		if w.tracer != nil {
			w.tracer.Emit(trace.Event{Time: w.Cluster.Engine.Now(), Kind: trace.KindMatch,
				PE: int32(r.pe.ID), VP: int32(r.vp), Peer: int32(m.src),
				Tag: int32(m.tag), Aux: trace.MatchOnDeliver, Bytes: m.bytes})
		}
		r.complete(q, m)
		if q.blocked {
			q.blocked = false
			r.thread.Wake()
		}
		return
	}
	if w.tracer != nil {
		w.tracer.Emit(trace.Event{Time: w.Cluster.Engine.Now(), Kind: trace.KindUnexpected,
			PE: int32(r.pe.ID), VP: int32(r.vp), Peer: int32(m.src),
			Tag: int32(m.tag), Bytes: m.bytes})
	}
	r.mailbox.add(m)
}

// Irecv posts a nonblocking receive into buf (MPI_Irecv). The matched
// message is copied into buf, so buf must hold it; a nil buf receives
// messages that carry no payload.
func (r *Rank) Irecv(src, tag int, buf []float64) *Request {
	if src != AnySource {
		r.checkPeer(src)
	}
	r.checkUserTag(tag)
	return r.irecv(src, tag, buf)
}

// irecv is the receive path Irecv and the collectives share: it
// completes at once against a queued message, else posts the request.
func (r *Rank) irecv(src, tag int, buf []float64) *Request {
	w := r.world
	q := w.pool().reqs.get()
	q.rank, q.src, q.tag, q.buf = r, src, tag, buf
	if w.tracer != nil {
		w.tracer.Emit(trace.Event{Time: r.thread.Now(), Kind: trace.KindRecvPost,
			PE: int32(r.pe.ID), VP: int32(r.vp), Peer: int32(src), Tag: int32(tag)})
	}
	if m := r.mailbox.take(q); m != nil {
		if w.tracer != nil {
			w.tracer.Emit(trace.Event{Time: r.thread.Now(), Kind: trace.KindMatch,
				PE: int32(r.pe.ID), VP: int32(r.vp), Peer: int32(m.src),
				Tag: int32(m.tag), Aux: trace.MatchOnPost, Bytes: m.bytes})
		}
		r.complete(q, m)
		return q
	}
	r.waits.add(q)
	return q
}

// Wait blocks until the request completes, frees it (MPI_Wait) and
// returns the filled prefix of its buffer.
func (r *Rank) Wait(q *Request) []float64 {
	if q.rank != r {
		panic(fmt.Sprintf("ampi: Wait on a request already completed or not posted by rank %d", r.vp))
	}
	if !q.done {
		q.blocked = true
		w := r.world
		var wstart sim.Time
		if w.tracer != nil {
			wstart = r.thread.Now()
		}
		r.thread.Suspend()
		if !q.done {
			panic(fmt.Sprintf("ampi: rank %d woke from Wait with incomplete request", r.vp))
		}
		if w.tracer != nil {
			w.tracer.Emit(trace.Event{Time: wstart, Dur: r.thread.Now() - wstart, Kind: trace.KindWait,
				PE: int32(r.pe.ID), VP: int32(r.vp), Peer: int32(q.gotSrc),
				Tag: int32(q.gotTag), Aux: trace.WaitMessage})
		}
	}
	r.thread.Advance(r.world.Cluster.Cost.MsgRecvOverhead)
	out := q.buf
	r.world.pool().reqs.put(q)
	return out
}

// Waitall completes and frees all requests; each one's data is in the
// buffer it was posted with.
func (r *Rank) Waitall(qs []*Request) {
	for _, q := range qs {
		r.Wait(q)
	}
}
