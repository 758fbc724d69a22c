package sim

import (
	"fmt"
	"sync"

	"provirt/internal/trace"
)

// ParallelEngine is the conservative-window parallel form of Engine:
// the pending queue is sharded into per-domain queues, each advanced by
// its own worker up to a horizon no other domain can invalidate. The
// result — rank state, rows, EventsFired, and trace bytes — is
// byte-identical to a serial Engine in domain mode at any worker count.
//
// The protocol per window:
//
//  1. The coordinator finds T, the earliest pending event time across
//     all domains, and sets the horizon H = T + lookahead.
//  2. Every domain whose next event is before H runs on a worker,
//     firing its events with at < H in (at, seq) order. Events a
//     callback schedules into its own domain go straight into the local
//     queue (and fire this window if they land before H); events for
//     another domain are appended to a per-destination outbox.
//  3. At the barrier the outboxes drain into their destination queues
//     and per-domain trace buffers merge into the user's tracer in
//     firing-key order.
//
// Correctness rests on the lookahead bound: a cross-domain event must
// land at least `lookahead` after its sender's clock, and every sender
// in the window has clock < H, so deliveries land at or after H — never
// inside the window that just ran. The engine panics on a send that
// violates the bound rather than silently diverging from serial order.
//
// Determinism rests on the composite seq stamp (see Engine): the stamp
// is computed from the creating domain's local creation counter, so the
// total order (at, seq) is identical whether domains run interleaved on
// one queue or concurrently on many.
type ParallelEngine struct {
	shards    []*shard
	lookahead Time
	workers   int
	tracer    trace.Tracer

	// extSeq is the src-0 creation counter for events scheduled outside
	// any callback (world setup, between-phase scheduling) — the same
	// single counter a serial engine in domain mode uses.
	extSeq uint64

	// horizon is the current window's bound; written by the coordinator
	// between windows, read by workers (and the causality check) inside
	// one.
	horizon Time

	// active is the coordinator's reusable scratch slice.
	active []*shard
}

// ParallelConfig describes a ParallelEngine.
type ParallelConfig struct {
	// Domains is the number of lookahead domains (1..MaxDomains).
	Domains int
	// Lookahead is the conservative horizon slack: the minimum virtual
	// time any cross-domain event takes to arrive. Must be positive —
	// zero lookahead serializes the protocol into lockstep.
	Lookahead Time
	// Workers caps how many domains advance concurrently; values <= 0
	// or greater than Domains clamp to Domains.
	Workers int
	// Tracer receives the merged event stream; nil runs untraced.
	Tracer trace.Tracer
}

// shard is one domain's queue plus its window-local state. It is the
// Sched a callback running in this domain sees.
type shard struct {
	pe  *ParallelEngine
	eng *Engine
	dom int32

	// out[d] holds cross-domain events created this window for domain
	// d, drained at the barrier. Single writer (this shard's worker).
	out [][]outEvent

	// buf collects this window's trace emissions, grouped by firing
	// event, for the deterministic barrier merge. Nil when untraced.
	buf *traceBuf

	// Window-local counters, folded into package metrics and engine
	// totals at the barrier so the hot loop touches no shared state.
	windowFired uint64
	windowCross uint64
}

// outEvent is one cross-domain insertion in flight to another shard.
type outEvent struct {
	at   Time
	seq  uint64
	call TimedCall
	arg  any
}

// NewParallelEngine builds a sharded engine. Configuration errors panic:
// the caller is the world builder, and a bad domain plan is a bug, not
// an input.
func NewParallelEngine(cfg ParallelConfig) *ParallelEngine {
	if cfg.Domains < 1 || cfg.Domains > MaxDomains {
		panic(fmt.Sprintf("sim: domain count %d out of range [1,%d]", cfg.Domains, MaxDomains))
	}
	if cfg.Lookahead <= 0 {
		panic(fmt.Sprintf("sim: parallel engine needs positive lookahead, got %v", cfg.Lookahead))
	}
	workers := cfg.Workers
	if workers <= 0 || workers > cfg.Domains {
		workers = cfg.Domains
	}
	p := &ParallelEngine{
		lookahead: cfg.Lookahead,
		workers:   workers,
		tracer:    cfg.Tracer,
		shards:    make([]*shard, cfg.Domains),
		active:    make([]*shard, 0, cfg.Domains),
	}
	for d := range p.shards {
		eng := NewEngine()
		eng.EnableDomains(cfg.Domains)
		s := &shard{pe: p, eng: eng, dom: int32(d), out: make([][]outEvent, cfg.Domains)}
		if cfg.Tracer != nil {
			s.buf = &traceBuf{}
		}
		p.shards[d] = s
	}
	return p
}

// Tracer returns the user's tracer (Sched). Emissions made outside any
// callback interleave with merged window output in program order, just
// as they do on a serial engine.
func (p *ParallelEngine) Tracer() trace.Tracer { return p.tracer }

// AtCallIn schedules call(s, t, arg) at time t in domain dom (Sched).
// This is the external path — world setup and between-phase scheduling;
// callbacks schedule through the per-domain Sched they were handed, and
// must not call this concurrently with Run.
func (p *ParallelEngine) AtCallIn(dom int, t Time, call TimedCall, arg any) {
	cnt := p.extSeq
	p.extSeq++
	seq := uint64(dom)<<56 | cnt // src 0: external
	p.shards[dom].eng.pushStamped(t, seq, int32(dom), call, arg)
}

// Reserve pre-sizes every shard for a workload keeping about n events
// in flight across the whole engine.
func (p *ParallelEngine) Reserve(n int) {
	per := (n + len(p.shards) - 1) / len(p.shards)
	for _, s := range p.shards {
		s.eng.Reserve(per)
	}
}

// EventsFired reports events processed across all domains.
func (p *ParallelEngine) EventsFired() uint64 {
	var total uint64
	for _, s := range p.shards {
		total += s.eng.fired
	}
	return total
}

// next reports the shard's earliest event time.
func (s *shard) next() (Time, bool) {
	if q := s.eng.queue; len(q) > 0 {
		return q[0].at, true
	}
	return 0, false
}

// runWindow fires the shard's events with at < horizon in key order.
// It runs on a worker goroutine; everything it touches is shard-local.
func (s *shard) runWindow(horizon Time) {
	e := s.eng
	for len(e.queue) > 0 && e.queue[0].at < horizon {
		nd := e.popMin()
		at := nd.at
		e.now = at
		e.fired++
		s.windowFired++
		if s.buf != nil {
			s.buf.begin(at, nd.seq)
			s.buf.Emit(trace.Event{Time: at, Kind: trace.KindEngineEvent, PE: -1, VP: -1, Peer: -1})
		}
		fn, call, tcall, arg, dom := nd.fn, nd.call, nd.tcall, nd.arg, nd.dom
		e.release(nd)
		e.curSrc = dom + 1
		if fn != nil {
			fn()
		} else if call != nil {
			call(arg)
		} else {
			tcall(s, at, arg)
		}
		e.curSrc = 0
	}
}

// AtCallIn schedules from inside a callback running in this domain
// (Sched). Same-domain events join the local queue immediately;
// cross-domain events are stamped here (the stamp needs this domain's
// creation counter) and mailed for delivery at the barrier.
func (s *shard) AtCallIn(dom int, t Time, call TimedCall, arg any) {
	e := s.eng
	src := uint64(s.dom) + 1
	cnt := e.srcSeq[src]
	e.srcSeq[src] = cnt + 1
	seq := uint64(dom)<<56 | src<<40 | cnt
	if int32(dom) == s.dom {
		e.pushStamped(t, seq, int32(dom), call, arg)
		return
	}
	if t < s.pe.horizon {
		panic(fmt.Sprintf(
			"sim: cross-domain event at %v from domain %d to %d lands inside the window (horizon %v, lookahead %v): cost model broke the lookahead bound",
			t, s.dom, dom, s.pe.horizon, s.pe.lookahead))
	}
	s.out[dom] = append(s.out[dom], outEvent{at: t, seq: seq, call: call, arg: arg})
	s.windowCross++
}

// Tracer returns the shard's window trace buffer (Sched), or nil when
// the run is untraced.
func (s *shard) Tracer() trace.Tracer {
	if s.buf == nil {
		return nil
	}
	return s.buf
}

// Run drives conservative windows until done returns true or every queue
// drains. If the queues drain first, Run returns
// ErrStalled — the same contract as Engine.Run, with done evaluated at
// window granularity (between windows no callback is mid-flight, so
// any done predicate over world state is safe to read).
func (p *ParallelEngine) Run(done func() bool) error {
	work := make(chan *shard, len(p.shards))
	defer close(work)
	var wg sync.WaitGroup
	for i := 0; i < p.workers; i++ {
		go func() {
			// p.horizon is stable for the window: the coordinator writes
			// it before the sends and after wg.Wait, so the channel and
			// the WaitGroup order every access.
			for s := range work {
				s.runWindow(p.horizon)
				wg.Done()
			}
		}()
	}
	for {
		if done != nil && done() {
			return nil
		}
		// The earliest pending event anywhere bounds the horizon.
		var tmin Time
		found := false
		for _, s := range p.shards {
			if t, ok := s.next(); ok && (!found || t < tmin) {
				tmin, found = t, true
			}
		}
		if !found {
			if done != nil && !done() {
				return ErrStalled
			}
			return nil
		}
		p.horizon = tmin + p.lookahead
		active := p.active[:0]
		for _, s := range p.shards {
			if t, ok := s.next(); ok && t < p.horizon {
				active = append(active, s)
			}
		}
		if len(active) == 1 {
			// A lone active domain needs no worker hop — this is also
			// the degenerate serial case (one domain, or a fully skewed
			// phase), which must not pay barrier overhead per event.
			active[0].runWindow(p.horizon)
		} else {
			wg.Add(len(active))
			for _, s := range active {
				work <- s
			}
			wg.Wait()
		}
		p.barrier(active)
	}
}

// barrier is the window epilogue: deliver mailboxes, merge trace
// buffers in firing-key order, and fold window-local counters into the
// package metrics. It runs on the coordinator with all workers idle.
func (p *ParallelEngine) barrier(active []*shard) {
	var fired, crossed uint64
	for _, s := range active {
		for dst := range s.out {
			box := s.out[dst]
			if len(box) == 0 {
				continue
			}
			dstEng := p.shards[dst].eng
			for i := range box {
				ev := &box[i]
				dstEng.pushStamped(ev.at, ev.seq, int32(dst), ev.call, ev.arg)
				ev.call, ev.arg = nil, nil
			}
			s.out[dst] = box[:0]
		}
		fired += s.windowFired
		crossed += s.windowCross
		metrics.domainWindowEvents.Observe(s.windowFired)
		s.windowFired, s.windowCross = 0, 0
	}
	if p.tracer != nil {
		p.mergeTraces(active)
	}
	metrics.dispatched.Add(fired)
	metrics.windows.Inc()
	metrics.windowEvents.Observe(fired)
	metrics.crossDomainEvents.Add(crossed)
	metrics.idleDomainWindows.Add(uint64(len(p.shards) - len(active)))
}

// mergeTraces drains the active shards' window buffers into the user's
// tracer ordered by firing-event key (at, seq) — exactly the order a
// serial engine would have emitted them in.
func (p *ParallelEngine) mergeTraces(active []*shard) {
	// Per-shard cursors; buffers are already key-sorted (each shard
	// fired in key order), so this is a k-way merge with linear probing
	// over at most Domains cursors.
	type cursor struct {
		buf  *traceBuf
		g, e int // next group / next event indexes
	}
	cur := make([]cursor, 0, len(active))
	for _, s := range active {
		if len(s.buf.groups) > 0 {
			cur = append(cur, cursor{buf: s.buf})
		}
	}
	for len(cur) > 0 {
		m := 0
		for i := 1; i < len(cur); i++ {
			gi := cur[i].buf.groups[cur[i].g]
			gm := cur[m].buf.groups[cur[m].g]
			if gi.at < gm.at || (gi.at == gm.at && gi.seq < gm.seq) {
				m = i
			}
		}
		c := &cur[m]
		g := c.buf.groups[c.g]
		for i := 0; i < g.n; i++ {
			p.tracer.Emit(c.buf.events[c.e])
			c.e++
		}
		c.g++
		if c.g == len(c.buf.groups) {
			cur[m] = cur[len(cur)-1]
			cur = cur[:len(cur)-1]
		}
	}
	for _, s := range active {
		s.buf.reset()
	}
}

// traceBuf accumulates one shard's window emissions grouped by firing
// event, so the barrier can interleave shards exactly as a serial
// engine would have.
type traceBuf struct {
	groups []traceGroup
	events []trace.Event
}

// traceGroup is one fired event's emission run: its ordering key and
// how many events it emitted (dispatch record plus callback emissions).
type traceGroup struct {
	at  Time
	seq uint64
	n   int
}

func (b *traceBuf) begin(at Time, seq uint64) {
	b.groups = append(b.groups, traceGroup{at: at, seq: seq})
}

// Emit implements trace.Tracer for callbacks running in the shard.
func (b *traceBuf) Emit(ev trace.Event) {
	b.events = append(b.events, ev)
	b.groups[len(b.groups)-1].n++
}

func (b *traceBuf) reset() {
	b.groups = b.groups[:0]
	b.events = b.events[:0]
}
