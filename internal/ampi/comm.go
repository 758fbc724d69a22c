package ampi

import "provirt/internal/trace"

// WorldComm is the id of MPI_COMM_WORLD, the communicator every message
// travels on.
const WorldComm = 0

// Comm is a rank's view of MPI_COMM_WORLD: the binomial-tree
// collectives, with a tag sequence of their own.
type Comm struct {
	r       *Rank
	collSeq int
}

// CommWorld returns this rank's view of MPI_COMM_WORLD.
func (r *Rank) CommWorld() *Comm { return &Comm{r: r} }

// Size reports the communicator's group size.
func (c *Comm) Size() int { return c.r.Size() }

// nextCollTag allocates a collective tag unique to this communicator
// instance sequence.
func (c *Comm) nextCollTag() int {
	c.collSeq++
	return collTagBase - c.collSeq
}

// sendColl / recvColl are the collective plumbing within the comm.
func (c *Comm) sendColl(dst, tag int, data []float64, bytes uint64) {
	c.r.sendMsg(dst, tag, WorldComm, data, bytes, true)
}

func (c *Comm) recvColl(src, tag int) []float64 {
	return c.r.Wait(c.r.irecvComm(src, tag, WorldComm, true))
}

// Barrier blocks until every member has entered it.
func (c *Comm) Barrier() {
	c.Allreduce(nil, OpSum)
}

// Bcast broadcasts from root along a binomial tree.
func (c *Comm) Bcast(root int, data []float64, bytes uint64) []float64 {
	size := c.Size()
	tag := c.nextCollTag()
	if size == 1 {
		return append([]float64(nil), data...)
	}
	rel := (c.r.vp - root + size) % size
	parent, children := binomialParentChildren(rel, size)
	buf := data
	if rel != 0 {
		buf = c.recvColl(abs(parent, root, size), tag)
	}
	for _, ch := range children {
		c.sendColl(abs(ch, root, size), tag, buf, bytes)
	}
	out := append([]float64(nil), buf...)
	if rel != 0 {
		// The relay buffer was this hop's message payload; sends have
		// copied it onward, so it can be recycled.
		c.r.world.putBuf(buf)
	}
	return out
}

// Reduce combines contributions at root.
func (c *Comm) Reduce(root int, data []float64, op *Op) []float64 {
	size := c.Size()
	tag := c.nextCollTag()
	w := c.r.world
	acc := w.copyBuf(data)
	rel := (c.r.vp - root + size) % size
	parent, children := binomialParentChildren(rel, size)
	for i := len(children) - 1; i >= 0; i-- {
		part := c.recvColl(abs(children[i], root, size), tag)
		acc = w.applyOp(op, c.r, part, acc)
		w.releaseAfterOp(op, part)
	}
	if rel != 0 {
		c.sendColl(abs(parent, root, size), tag, acc, 0)
		w.releaseAfterOp(op, acc)
		return nil
	}
	return acc
}

// Allreduce reduces then broadcasts.
func (c *Comm) Allreduce(data []float64, op *Op) []float64 {
	acc := c.Reduce(0, data, op)
	out := c.Bcast(0, acc, 0)
	if acc != nil {
		// Only the root holds a reduction result here, and Bcast has
		// copied it into the outgoing payloads and out.
		c.r.world.releaseAfterOp(op, acc)
	}
	return out
}

func (r *Rank) irecvComm(srcWorld, tag, comm int, internal bool) *Request {
	q := &Request{rank: r, src: srcWorld, tag: tag, comm: comm, internal: internal}
	w := r.world
	if w.tracer != nil {
		w.tracer.Emit(trace.Event{Time: r.thread.Now(), Kind: trace.KindRecvPost,
			PE: int32(r.pe.ID), VP: int32(r.vp), Peer: int32(srcWorld),
			Tag: int32(tag), Comm: int64(comm)})
	}
	if m := r.mailbox.take(q); m != nil {
		if w.tracer != nil {
			w.tracer.Emit(trace.Event{Time: r.thread.Now(), Kind: trace.KindMatch,
				PE: int32(r.pe.ID), VP: int32(r.vp), Peer: int32(m.src),
				Tag: int32(m.tag), Aux: trace.MatchOnPost, Comm: int64(m.comm), Bytes: m.bytes})
		}
		r.complete(q, m)
		return q
	}
	r.waits.add(q)
	return q
}
