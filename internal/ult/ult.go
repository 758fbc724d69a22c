// Package ult implements user-level threads as runtime coroutines
// (iter.Pull), bound to the discrete-event clock.
//
// Exactly one of the engine (processing events) and one rank thread runs
// at a time, and the coroutine switch enforces it: resuming a thread
// suspends the engine's goroutine until the thread parks or returns, with
// no channel, no scheduler round trip and no allocation. A thread runs
// real Go code — the MPI program — and charges virtual compute time to
// its PE's local clock as it goes. When it blocks (inside MPI_Recv, a
// barrier, ...), control hands back to the per-PE scheduler, which
// context switches to the next ready thread, charging the privatization
// method's switch cost. This mirrors AMPI's message-driven cooperative
// scheduling of virtual ranks (§2.1) with ~100ns switches.
package ult

import (
	"fmt"
	"iter"

	"provirt/internal/machine"
	"provirt/internal/sim"
	"provirt/internal/trace"
)

// State is a thread's lifecycle state.
type State int

const (
	// Created: never run.
	Created State = iota
	// Ready: runnable, waiting in a scheduler queue.
	Ready
	// Running: currently executing.
	Running
	// Blocked: suspended inside a blocking call.
	Blocked
	// Done: body returned.
	Done
)

func (s State) String() string {
	switch s {
	case Created:
		return "created"
	case Ready:
		return "ready"
	case Running:
		return "running"
	case Blocked:
		return "blocked"
	case Done:
		return "done"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Thread is one user-level thread (one virtual rank).
type Thread struct {
	ID    int
	state State
	sched *Scheduler
	body  func(*Thread)

	// resume runs the body until it parks or returns, stop makes every
	// park (the pending one and any later) fail, and yield is park's way
	// back to whoever resumed: the three ends of one iter.Pull, nil until
	// the first run.
	resume func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool

	// Err holds a panic recovered from the thread body.
	Err error

	// Load is virtual compute time accumulated since the last call to
	// ResetLoad; the load balancer reads it.
	Load sim.Time

	// Context is the privatization rank context attached by the core
	// runtime; ult treats it opaquely but exposes it to the switch
	// hook.
	Context any
}

// InitThread initializes a caller-allocated Thread in place, so worlds
// can keep rank threads in one contiguous slab instead of a heap object
// each; it will run body when first scheduled. The backing coroutine is
// created lazily on the first run, so a thread that never executes (an
// idle rank parked in a collective for the whole run) costs one struct,
// not a stack.
func InitThread(t *Thread, id int, body func(*Thread)) {
	*t = Thread{ID: id, body: body}
}

// State reports the thread's lifecycle state.
func (t *Thread) State() State { return t.state }

// Now reports the thread's PE-local virtual clock. Valid only while the
// thread is running.
func (t *Thread) Now() sim.Time { return t.sched.now }

// Advance charges d of virtual compute time to the thread's PE.
func (t *Thread) Advance(d sim.Time) {
	if d < 0 {
		panic("ult: negative compute time")
	}
	t.sched.now += d
	t.Load += d
}

// ResetLoad zeroes the thread's accumulated load (after a LB pass).
func (t *Thread) ResetLoad() { t.Load = 0 }

// killedPanic is the sentinel a killed thread unwinds with.
type killedPanic struct{}

// park hands control back to the scheduler until resumed. The caller
// must set the thread's state (Blocked or Ready) first. Once the thread
// is killed, yield returns false without switching, so a deferred
// function that blocks again while the body unwinds re-panics instead of
// hanging.
func (t *Thread) park() {
	if !t.yield(struct{}{}) {
		// Unwind the body; main recovers.
		panic(killedPanic{})
	}
	t.state = Running
}

// Kill forcibly terminates a parked thread (hard-fault injection: the
// node hosting the rank died; or its world stopped without it). Stopping
// the coroutine makes the pending park fail, so the body unwinds via a
// panic recovered by the runtime, running its deferred functions; Err is
// set to a description. Kill returns once the body has unwound. It may be
// called on Blocked, Ready, or never-started threads — i.e. from any
// engine event, where no thread is Running; killing a Running thread
// panics.
func (t *Thread) Kill(reason string) {
	switch t.state {
	case Done:
		return
	case Blocked, Ready, Created:
	default:
		panic(fmt.Sprintf("ult: kill of %v thread %d", t.state, t.ID))
	}
	if t.resume == nil {
		t.state = Done
		t.Err = fmt.Errorf("ult: thread %d killed before first run: %s", t.ID, reason)
		return
	}
	t.stop()
	t.Err = fmt.Errorf("ult: thread %d killed: %s", t.ID, reason)
}

// Suspend parks the thread until another component calls Wake. The
// typical caller is a blocking MPI operation whose completion condition
// is not yet met.
func (t *Thread) Suspend() {
	t.state = Blocked
	t.park()
}

// Yield places the thread at the back of its scheduler's ready queue
// and parks; it resumes after other ready threads have run.
func (t *Thread) Yield() {
	t.state = Ready
	t.sched.push(t)
	t.park()
}

// Wake makes a blocked thread ready on its current scheduler and
// ensures a scheduler pass is queued. Waking a non-blocked thread
// panics: it indicates a lost-wakeup bug in the caller.
func (t *Thread) Wake() {
	if t.state != Blocked && t.state != Created {
		panic(fmt.Sprintf("ult: wake of thread %d in state %v", t.ID, t.state))
	}
	s := t.sched
	t.state = Ready
	s.push(t)
	s.schedule()
}

// run hands control to the thread until it parks or finishes.
func (t *Thread) run() {
	if t.resume == nil {
		// Lazy materialization: the coroutine and its stack exist only
		// once the thread actually executes.
		t.resume, t.stop = iter.Pull(t.main)
	}
	t.resume()
}

// main is the coroutine's body: the thread body between a recover that
// turns a panic into Err and the bookkeeping that marks the thread Done.
func (t *Thread) main(yield func(struct{}) bool) {
	t.yield = yield
	defer func() {
		if r := recover(); r != nil {
			if _, wasKill := r.(killedPanic); !wasKill {
				t.Err = fmt.Errorf("ult: thread %d panicked: %v", t.ID, r)
			}
		}
		t.state = Done
	}()
	t.state = Running
	t.body(t)
}

// Scheduler is the per-PE cooperative scheduler.
type Scheduler struct {
	PE     *machine.PE
	Engine *sim.Engine
	Cost   *machine.CostModel

	now sim.Time
	// ready[head:] is the FIFO run queue; see push.
	ready []*Thread
	head  int

	passQueued bool
	inPass     bool
	// passFn caches the bound method value for s.pass so queueing a
	// scheduler pass does not allocate one per event.
	passFn func()

	// SwitchExtra is the privatization method's additional
	// per-context-switch cost (TLS segment pointer update, GOT swap);
	// nil means zero.
	SwitchExtra func(from, to *Thread) sim.Time

	// Tracer, when non-nil, receives context-switch, execution-quantum,
	// and PE-idle events on the virtual clock. The nil default costs
	// the scheduling loop one pointer comparison per quantum.
	Tracer trace.Tracer

	// Stats
	switches   uint64
	switchTime sim.Time
	threads    []*Thread
	last       *Thread
}

// NewScheduler binds a scheduler to a PE.
func NewScheduler(pe *machine.PE, engine *sim.Engine, cost *machine.CostModel) *Scheduler {
	s := &Scheduler{PE: pe, Engine: engine, Cost: cost}
	s.passFn = s.pass
	return s
}

// Now reports the PE-local clock.
func (s *Scheduler) Now() sim.Time { return s.now }

// Switches reports the number of ULT context switches performed.
func (s *Scheduler) Switches() uint64 { return s.switches }

// SwitchTime reports total virtual time spent context switching.
func (s *Scheduler) SwitchTime() sim.Time { return s.switchTime }

// Threads returns the threads homed on this scheduler.
func (s *Scheduler) Threads() []*Thread { return s.threads }

// Adopt homes a thread on this scheduler and marks it ready to run.
func (s *Scheduler) Adopt(t *Thread) {
	t.sched = s
	s.threads = append(s.threads, t)
	if t.state == Created || t.state == Blocked {
		t.state = Ready
		s.push(t)
	}
	s.schedule()
}

// Remove unbinds a (blocked or done) thread from this scheduler, e.g.
// for migration. Removing a running or ready thread panics.
func (s *Scheduler) Remove(t *Thread) {
	if t.state == Running || t.state == Ready {
		panic(fmt.Sprintf("ult: remove of %v thread %d", t.state, t.ID))
	}
	for i, tt := range s.threads {
		if tt == t {
			s.threads = append(s.threads[:i], s.threads[i+1:]...)
			break
		}
	}
	if s.last == t {
		s.last = nil
	}
	t.sched = nil
}

// AdoptBlocked homes a thread on this scheduler without making it
// runnable; a later Wake schedules it. Migration uses this to land a
// rank that is still suspended in a barrier.
func (s *Scheduler) AdoptBlocked(t *Thread) {
	t.sched = s
	s.threads = append(s.threads, t)
}

// push appends t to the run queue. Popping advances head instead of
// reslicing, so the backing array keeps its capacity; when it fills and
// at least half of it is popped slots, the live tail slides down to the
// front instead of growing. A steady Yield or Wake therefore allocates
// nothing, whether the queue drains between pushes or (a two-thread
// ping, where one thread is always queued) never does.
func (s *Scheduler) push(t *Thread) {
	if len(s.ready) == cap(s.ready) && 2*s.head >= len(s.ready) {
		s.ready = s.ready[:copy(s.ready, s.ready[s.head:])]
		s.head = 0
	}
	s.ready = append(s.ready, t)
}

// schedule queues a scheduler pass if one is needed and not already
// pending.
func (s *Scheduler) schedule() {
	if s.passQueued || s.inPass || s.RunnableCount() == 0 {
		return
	}
	s.passQueued = true
	at := s.now
	if now := s.Engine.Now(); now > at {
		at = now
	}
	s.Engine.At(at, s.passFn)
}

// pass runs ready threads until the queue drains. It executes as one
// engine event; virtual time advances on the PE-local clock as threads
// compute.
func (s *Scheduler) pass() {
	s.passQueued = false
	s.inPass = true
	defer func() { s.inPass = false }()
	if now := s.Engine.Now(); now > s.now {
		if s.Tracer != nil {
			s.Tracer.Emit(trace.Event{Time: s.now, Dur: now - s.now, Kind: trace.KindIdle,
				PE: int32(s.PE.ID), VP: -1, Peer: -1})
		}
		s.now = now
	}
	for s.head < len(s.ready) {
		t := s.ready[s.head]
		s.head++
		if t.state != Ready {
			continue
		}
		// Charge the context switch: scheduler overhead plus the
		// privatization method's extra work (stack switch, TLS segment
		// pointer update, GOT swap).
		cost := s.Cost.ULTSwitchBase
		if s.SwitchExtra != nil {
			cost += s.SwitchExtra(s.last, t)
		}
		if s.Tracer != nil {
			from := int32(-1)
			if s.last != nil {
				from = int32(s.last.ID)
			}
			s.Tracer.Emit(trace.Event{Time: s.now, Dur: cost, Kind: trace.KindSwitch,
				PE: int32(s.PE.ID), VP: int32(t.ID), Peer: from})
		}
		s.now += cost
		s.switches++
		s.switchTime += cost
		s.last = t
		start := s.now
		t.run()
		if s.Tracer != nil {
			s.Tracer.Emit(trace.Event{Time: start, Dur: s.now - start, Kind: trace.KindExec,
				PE: int32(s.PE.ID), VP: int32(t.ID), Peer: -1})
		}
	}
}

// RunnableCount reports how many threads are waiting in the ready
// queue.
func (s *Scheduler) RunnableCount() int { return len(s.ready) - s.head }
