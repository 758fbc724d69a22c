// Package sim provides a deterministic discrete-event simulation engine.
//
// All time in the reproduction is virtual: costs are charged to a simulated
// clock, never measured from the host. A simulation run is therefore a pure
// function of its configuration and seed, and every experiment in the paper
// reproduces bit-for-bit.
//
// The engine is built for wall-clock speed: the pending queue is a 4-ary
// min-heap with inlined sift operations (shallower than a binary heap, so
// fewer comparisons per pop on the deep queues collectives build), event
// nodes are recycled through a free list so steady-state scheduling does
// not allocate, and AtCall schedules a (func, arg) pair without forcing the
// caller to allocate a capturing closure.
package sim

import (
	"errors"
	"fmt"
	"time"

	"provirt/internal/trace"
)

// Time is a point in virtual time, measured as an offset from the start of
// the simulation. It is a time.Duration so costs compose with the standard
// library's unit constants (time.Nanosecond etc.).
type Time = time.Duration

// node is the pooled representation of one scheduled callback. Exactly one
// of fn, call, and tcall is set.
type node struct {
	at    Time
	seq   uint64
	fn    func()
	call  func(any)
	tcall TimedCall
	arg   any
	dom   int32 // lookahead domain (0 when domains are off)
}

// TimedCall is the callback form domain-aware scheduling uses: it
// receives the scheduler context it may schedule follow-up events on
// and the event's own timestamp. Passing both explicitly is what lets
// the same callback run under the serial Engine and under a
// ParallelEngine shard, where a global "now" does not exist.
type TimedCall = func(s Sched, now Time, arg any)

// Dispatcher is the engine surface a world drives when it should run
// on either clock implementation: scheduling (Sched), bulk pre-sizing,
// and the run loop. Engine and ParallelEngine both implement it.
type Dispatcher interface {
	Sched
	Reserve(n int)
	Run(done func() bool) error
	EventsFired() uint64
}

// Sched is the scheduling surface an event callback sees. The serial
// Engine implements it directly; ParallelEngine hands each callback a
// per-domain view that routes cross-domain insertions through the
// window mailboxes.
type Sched interface {
	// AtCallIn schedules call(s, t, arg) at absolute virtual time t in
	// the given lookahead domain. From inside a callback, a cross-domain
	// t must be at least one lookahead past the current window horizon.
	AtCallIn(dom int, t Time, call TimedCall, arg any)
	// Tracer returns the tracer run-phase emissions must go through so
	// they merge into the deterministic per-event stream (nil when the
	// run is untraced). Under the parallel engine this is a per-domain
	// window buffer, not the user's tracer.
	Tracer() trace.Tracer
}

// Engine owns the virtual clock and the pending event queue. Events with
// equal timestamps fire in the order they were scheduled, which keeps runs
// deterministic.
//
// The engine is not safe for concurrent use; the whole simulation runs on a
// single logical thread (rank user-level threads hand control back and forth
// with the engine through package ult). Independent engines are fully
// isolated and may run on distinct goroutines.
type Engine struct {
	now    Time
	seq    uint64
	queue  []*node
	free   []*node
	fired  uint64
	halted bool

	// Domain mode (EnableDomains). domains == 0 is plain mode: seq is a
	// single insertion counter and ties fire in scheduling order. With
	// domains on, seq becomes the composite key
	//
	//	dom<<56 | src<<40 | count
	//
	// where dom is the event's target domain, src identifies its creator
	// (0 for events scheduled outside any callback, d+1 for events
	// created while domain d was dispatching), and count is the
	// creator's monotone creation counter (srcSeq[src]). Under (at, seq)
	// this orders ties by (domain, creator, creation order) — a total
	// order both the serial engine and the sharded ParallelEngine can
	// compute locally, which is what makes the two byte-identical.
	domains int
	curSrc  int32 // srcSeq slot creations stamp from; 0 outside dispatch
	srcSeq  []uint64

	// tracer, when non-nil, receives one KindEngineEvent per dispatch.
	// The nil default keeps Step's dispatch loop hook-free apart from a
	// single pointer comparison.
	tracer trace.Tracer
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// MaxDomains is the largest domain count EnableDomains accepts: the
// composite seq key gives the domain 8 bits.
const MaxDomains = 256

// EnableDomains switches the engine to domain-stamped tie order (see
// the Engine doc) with n lookahead domains. It must be called before
// anything is scheduled: mixing plain and composite seq values would
// make the tie order meaningless.
func (e *Engine) EnableDomains(n int) {
	if n < 1 || n > MaxDomains {
		panic(fmt.Sprintf("sim: domain count %d out of range [1,%d]", n, MaxDomains))
	}
	if e.seq != 0 || e.fired != 0 || len(e.queue) != 0 {
		panic("sim: EnableDomains after scheduling began")
	}
	e.domains = n
	e.srcSeq = make([]uint64, n+1)
}

// stamp assigns the next seq value for an event targeting dom.
func (e *Engine) stamp(dom int32) uint64 {
	if e.domains == 0 {
		s := e.seq
		e.seq++
		return s
	}
	src := e.curSrc
	cnt := e.srcSeq[src]
	e.srcSeq[src] = cnt + 1
	return uint64(dom)<<56 | uint64(src)<<40 | cnt
}

// curDom reports the domain untargeted scheduling (At/AtCall)
// lands in: the dispatching event's own domain, or 0 outside dispatch.
func (e *Engine) curDom() int32 {
	if e.curSrc > 0 {
		return e.curSrc - 1
	}
	return 0
}

// Reserve pre-sizes the engine for a workload that will keep about n
// events in flight: the queue gets capacity up front and the free list
// is stocked with n nodes, so the first wave of scheduling neither grows
// the heap slice nor allocates nodes one by one. Million-rank worlds
// call it once at build; it is never required for correctness.
func (e *Engine) Reserve(n int) {
	if extra := n - cap(e.queue); extra > 0 {
		q := make([]*node, len(e.queue), n)
		copy(q, e.queue)
		e.queue = q
	}
	if need := n - len(e.free); need > 0 {
		nodes := make([]node, need) // one slab, not n small allocations
		for i := range nodes {
			e.free = append(e.free, &nodes[i])
		}
	}
}

// EventsFired reports how many events have been processed so far.
func (e *Engine) EventsFired() uint64 { return e.fired }

// SetTracer installs (or, with nil, removes) the dispatch tracer.
func (e *Engine) SetTracer(t trace.Tracer) { e.tracer = t }

// Tracer returns the installed tracer (Sched).
func (e *Engine) Tracer() trace.Tracer { return e.tracer }

// alloc takes a node from the free list, or makes one.
func (e *Engine) alloc() *node {
	if n := len(e.free); n > 0 {
		nd := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		metrics.nodeReuse.Inc()
		return nd
	}
	metrics.nodeAllocs.Inc()
	return &node{}
}

// release recycles a node, dropping its references.
func (e *Engine) release(nd *node) {
	nd.fn = nil
	nd.call = nil
	nd.tcall = nil
	nd.arg = nil
	e.free = append(e.free, nd)
}

// push appends a prepared node and restores the heap invariant.
func (e *Engine) push(nd *node) {
	e.queue = append(e.queue, nd)
	e.siftUp(len(e.queue) - 1)
	metrics.queueDepth.SetMax(int64(len(e.queue)))
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it indicates a bug in a cost model, and silently clamping would
// mask causality violations.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled at %v, before now %v", t, e.now))
	}
	nd := e.alloc()
	nd.at, nd.fn = t, fn
	nd.dom = e.curDom()
	nd.seq = e.stamp(nd.dom)
	e.push(nd)
}

// AtCall schedules call(arg) at absolute virtual time t. It is the
// allocation-free variant of At for hot paths: the caller passes a shared
// function value and threads its state through arg instead of capturing it
// in a fresh closure per event.
func (e *Engine) AtCall(t Time, call func(any), arg any) {
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled at %v, before now %v", t, e.now))
	}
	nd := e.alloc()
	nd.at, nd.call, nd.arg = t, call, arg
	nd.dom = e.curDom()
	nd.seq = e.stamp(nd.dom)
	e.push(nd)
}

// AtCallIn schedules call(e, t, arg) at absolute virtual time t in
// lookahead domain dom (Sched). On the serial engine the domain only
// feeds the tie-order stamp; under a ParallelEngine the same call
// routes the event to that domain's shard.
func (e *Engine) AtCallIn(dom int, t Time, call TimedCall, arg any) {
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled at %v, before now %v", t, e.now))
	}
	nd := e.alloc()
	nd.at, nd.tcall, nd.arg, nd.dom = t, call, arg, int32(dom)
	nd.seq = e.stamp(nd.dom)
	e.push(nd)
}

// pushStamped schedules a timed callback whose seq was computed by the
// caller — the ParallelEngine's delivery path for external scheduling
// and for cross-domain mailbox drains, where the stamp's creation
// counter belongs to another shard.
func (e *Engine) pushStamped(t Time, seq uint64, dom int32, call TimedCall, arg any) {
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled at %v, before now %v", t, e.now))
	}
	nd := e.alloc()
	nd.at, nd.seq, nd.tcall, nd.arg, nd.dom = t, seq, call, arg, dom
	e.push(nd)
}

// less orders nodes by (time, scheduling sequence).
func less(a, b *node) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// siftUp restores the 4-ary heap invariant from index i toward the root.
func (e *Engine) siftUp(i int) {
	q := e.queue
	nd := q[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !less(nd, q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = nd
}

// siftDown restores the 4-ary heap invariant from index i toward the leaves.
func (e *Engine) siftDown(i int) {
	q := e.queue
	n := len(q)
	nd := q[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if less(q[j], q[m]) {
				m = j
			}
		}
		if !less(q[m], nd) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = nd
}

// popMin removes and returns the earliest node.
func (e *Engine) popMin() *node {
	q := e.queue
	nd := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q[last] = nil
	e.queue = q[:last]
	if last > 0 {
		e.siftDown(0)
	}
	return nd
}

// Halt stops the run loop after the current event returns.
func (e *Engine) Halt() { e.halted = true }

// ErrStalled is returned by Run when the event queue drains while the
// caller-supplied done predicate is still false — the simulated system has
// deadlocked.
var ErrStalled = errors.New("sim: event queue empty before completion (deadlock)")

// Step fires the next pending event, advancing the clock to its timestamp.
// It reports whether an event was fired.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	nd := e.popMin()
	if nd.at < e.now {
		panic("sim: clock regression")
	}
	e.now = nd.at
	e.fired++
	metrics.dispatched.Inc()
	if e.tracer != nil {
		e.tracer.Emit(trace.Event{Time: e.now, Kind: trace.KindEngineEvent, PE: -1, VP: -1, Peer: -1})
	}
	fn, call, tcall, arg, dom := nd.fn, nd.call, nd.tcall, nd.arg, nd.dom
	// Recycle before running the callback, so it can immediately reuse
	// the node for what it schedules.
	e.release(nd)
	e.curSrc = dom + 1
	if fn != nil {
		fn()
	} else if call != nil {
		call(arg)
	} else {
		tcall(e, e.now, arg)
	}
	e.curSrc = 0
	return true
}

// Run fires events until done returns true, the queue drains, or Halt is
// called. If the queue drains first, Run returns ErrStalled.
func (e *Engine) Run(done func() bool) error {
	e.halted = false
	for !e.halted {
		if done != nil && done() {
			return nil
		}
		if !e.Step() {
			if done != nil && !done() {
				return ErrStalled
			}
			return nil
		}
	}
	return nil
}

// Drain fires all pending events unconditionally.
func (e *Engine) Drain() {
	for e.Step() {
	}
}
