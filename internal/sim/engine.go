// Package sim provides a deterministic discrete-event simulation engine.
//
// All time in the reproduction is virtual: costs are charged to a simulated
// clock, never measured from the host. A simulation run is therefore a pure
// function of its configuration and seed, and every experiment in the paper
// reproduces bit-for-bit.
//
// The engine is built for wall-clock speed: the pending queue is a 4-ary
// min-heap (shallower than a binary heap, so fewer comparisons per pop on
// the deep queues collectives build) that holds events by value, so
// scheduling allocates nothing once the queue has grown, and writes each
// scheduled or reinserted event once, where its sift stops; AtCall
// schedules a (func, arg) pair without forcing the caller to allocate a
// capturing closure; and a finished engine hands its queue's storage to
// the next one (Recycle).
package sim

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"provirt/internal/trace"
)

// Time is a point in virtual time, measured as an offset from the start of
// the simulation. It is a time.Duration so costs compose with the standard
// library's unit constants (time.Nanosecond etc.).
type Time = time.Duration

// event is one scheduled callback, call(arg), held in the queue by value.
type event struct {
	at   Time
	seq  uint64
	call func(any)
	arg  any
}

// callFunc is the trampoline At schedules: its argument is the func()
// itself, which an interface holds without allocating.
func callFunc(fn any) { fn.(func())() }

// queues holds the backing arrays of recycled engines' queues, empty
// and cleared, for NewEngine to take.
var queues sync.Pool

// Engine owns the virtual clock and the pending event queue. Events with
// equal timestamps fire in the order they were scheduled, which keeps runs
// deterministic.
//
// The engine is not safe for concurrent use; the whole simulation runs on a
// single logical thread (rank user-level threads hand control back and forth
// with the engine through package ult, and the flat world's records are
// updated from its callbacks). It is the only clock: every world, of
// either kind, runs on one. Independent engines are fully isolated and may
// run on distinct goroutines, one per sweep point.
type Engine struct {
	now    Time
	seq    uint64
	queue  []event
	fired  uint64
	halted bool

	// tracer, when non-nil, receives one KindEngineEvent per dispatch.
	// The nil default keeps Step's dispatch loop hook-free apart from a
	// single pointer comparison.
	tracer trace.Tracer
}

// NewEngine returns an engine with the clock at zero. Its queue starts
// on the storage of an engine recycled earlier, if there is one.
func NewEngine() *Engine {
	e := &Engine{}
	if q, ok := queues.Get().(*[]event); ok {
		e.queue = *q
	}
	return e
}

// Recycle hands the queue's storage to a later NewEngine, dropping any
// events still pending. Now and EventsFired keep their values; an event
// scheduled afterwards starts a fresh queue.
func (e *Engine) Recycle() {
	if cap(e.queue) == 0 {
		return
	}
	clear(e.queue) // removeMin has already cleared the slots past len
	q := e.queue[:0]
	e.queue = nil
	queues.Put(&q)
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Reserve sizes the queue for a workload that will keep about n events
// in flight, so the first wave of scheduling does not grow it step by
// step. Million-rank worlds call it once at build; it is never required
// for correctness.
func (e *Engine) Reserve(n int) {
	if n > cap(e.queue) {
		e.queue = append(make([]event, 0, n), e.queue...)
	}
}

// EventsFired reports how many events have been processed so far.
func (e *Engine) EventsFired() uint64 { return e.fired }

// SetTracer installs (or, with nil, removes) the dispatch tracer.
func (e *Engine) SetTracer(t trace.Tracer) { e.tracer = t }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it indicates a bug in a cost model, and silently clamping would
// mask causality violations.
func (e *Engine) At(t Time, fn func()) {
	e.AtCall(t, callFunc, fn)
}

// AtCall schedules call(arg) at absolute virtual time t. It is the
// allocation-free variant of At for hot paths: the caller passes a shared
// function value and threads its state through arg instead of capturing it
// in a fresh closure per event.
func (e *Engine) AtCall(t Time, call func(any), arg any) {
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled at %v, before now %v", t, e.now))
	}
	// Sift a hole up from a new last slot and fill it once. The event has
	// the largest sequence number yet, so it rises only past later times.
	q := append(e.queue, event{})
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if q[p].at <= t {
			break
		}
		q[i] = q[p]
		i = p
	}
	ev := &q[i]
	ev.at, ev.seq, ev.call, ev.arg = t, e.seq, call, arg
	e.seq++
	e.queue = q
	metrics.queueDepth.SetMax(int64(len(q)))
}

// less orders events by (time, scheduling sequence).
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// removeMin drops the earliest event. A hole sinks from the root until
// the last event fits in it, and the last event is moved there once.
func (e *Engine) removeMin() {
	q := e.queue
	last := len(q) - 1
	x := &q[last]
	i := 0
	for {
		c := i<<2 + 1
		if c >= last {
			break
		}
		end := min(c+4, last)
		m := c
		for j := c + 1; j < end; j++ {
			if less(&q[j], &q[m]) {
				m = j
			}
		}
		if !less(&q[m], x) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = *x
	q[last] = event{}
	e.queue = q[:last]
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
	at, call, arg := e.queue[0].at, e.queue[0].call, e.queue[0].arg
	e.removeMin()
	if at < e.now {
		panic("sim: clock regression")
	}
	e.now = at
	e.fired++
	metrics.dispatched.Inc()
	if e.tracer != nil {
		e.tracer.Emit(trace.Event{Time: e.now, Kind: trace.KindEngineEvent, PE: -1, VP: -1, Peer: -1})
	}
	call(arg)
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
