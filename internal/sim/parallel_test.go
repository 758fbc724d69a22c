package sim

import (
	"reflect"
	"strings"
	"testing"

	"provirt/internal/obs"
	"provirt/internal/trace"
)

// TestDomainStampTieOrder pins the composite tie order: with domains
// on, simultaneous events fire by (domain, creator, creation order),
// not by global scheduling order.
func TestDomainStampTieOrder(t *testing.T) {
	e := NewEngine()
	e.EnableDomains(3)
	var order []int
	log := func(id int) TimedCall {
		return func(s Sched, now Time, arg any) { order = append(order, id) }
	}
	// Scheduled in domain order 2, 0, 1 — must fire as 0, 1, 2.
	e.AtCallIn(2, 10, log(2), nil)
	e.AtCallIn(0, 10, log(0), nil)
	e.AtCallIn(1, 10, log(1), nil)
	e.Drain()
	if want := []int{0, 1, 2}; !reflect.DeepEqual(order, want) {
		t.Fatalf("tie order %v, want %v (domain order)", order, want)
	}

	// Within one domain at one time: externally-created (src 0) events
	// fire before dispatch-created (src d+1) ones, each in creation
	// order.
	e2 := NewEngine()
	e2.EnableDomains(2)
	order = nil
	e2.AtCallIn(0, 5, func(s Sched, now Time, arg any) {
		// Created during dispatch in domain 0: src 1.
		s.AtCallIn(1, 20, log(10), nil)
	}, nil)
	e2.AtCallIn(1, 20, log(1), nil) // external: src 0, same (time, domain)
	e2.Drain()
	if want := []int{1, 10}; !reflect.DeepEqual(order, want) {
		t.Fatalf("creator tie order %v, want %v (external before dispatch-created)", order, want)
	}
}

// churnWork is the randomized cross-domain workload the serial/parallel
// equivalence test runs: each event emits a trace record, then spawns a
// same-domain child and a cross-domain child until its depth runs out,
// with times and targets drawn from a per-event LCG.
type churnWork struct {
	id    uint64
	dom   int
	depth int
}

const churnLookahead = Time(100)

func churnStep(domains int) TimedCall {
	var cb TimedCall
	cb = func(s Sched, now Time, arg any) {
		w := arg.(*churnWork)
		if tr := s.Tracer(); tr != nil {
			tr.Emit(trace.Event{Time: now, Kind: trace.KindLink, VP: int32(w.id), PE: -1, Peer: -1})
		}
		if w.depth <= 0 {
			return
		}
		h := w.id * 0x9E3779B97F4A7C15
		// A same-domain child may land immediately — often still inside
		// the current window, exercising the local fast path.
		s.AtCallIn(w.dom, now+Time(h%43),
			cb, &churnWork{id: w.id*2 + 1, dom: w.dom, depth: w.depth - 1})
		// A child for an arbitrary domain must respect the lookahead
		// bound whenever it crosses.
		crossDom := int(h>>16) % domains
		s.AtCallIn(crossDom, now+churnLookahead+Time(h%59),
			cb, &churnWork{id: w.id * 2, dom: crossDom, depth: w.depth - 1})
	}
	return cb
}

// runChurn drives the workload on the given dispatcher and returns the
// merged trace stream.
func runChurn(t *testing.T, d Dispatcher, domains int, rec *trace.Recorder) []trace.Event {
	t.Helper()
	cb := churnStep(domains)
	for i := 0; i < 4*domains; i++ {
		d.AtCallIn(i%domains, Time(i), cb, &churnWork{id: uint64(i + 1), dom: i % domains, depth: 7})
	}
	if err := d.Run(nil); err != nil {
		t.Fatalf("run: %v", err)
	}
	return rec.Events()
}

// TestParallelEngineMatchesSerial is the engine-level determinism gate:
// a randomized workload with heavy cross-domain traffic must produce
// the identical merged trace stream (dispatch records and callback
// emissions) on the serial engine in domain mode and on the parallel
// engine at several worker counts.
func TestParallelEngineMatchesSerial(t *testing.T) {
	r := obs.NewRegistry()
	EnableObs(r)
	defer EnableObs(nil)
	const domains = 5
	serialRec := trace.NewRecorder(append(trace.DefaultKinds(), trace.KindEngineEvent)...)
	ser := NewEngine()
	ser.EnableDomains(domains)
	ser.SetTracer(serialRec)
	want := runChurn(t, ser, domains, serialRec)
	if len(want) == 0 {
		t.Fatal("serial run emitted nothing")
	}

	for _, workers := range []int{1, 2, 4, 8} {
		windows := metrics.windows.Value()
		rec := trace.NewRecorder(append(trace.DefaultKinds(), trace.KindEngineEvent)...)
		par := NewParallelEngine(ParallelConfig{
			Domains: domains, Lookahead: churnLookahead, Workers: workers, Tracer: rec,
		})
		got := runChurn(t, par, domains, rec)
		if !reflect.DeepEqual(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("workers=%d: trace diverged at event %d of %d (serial %d events)",
				workers, i, len(got), len(want))
		}
		if par.EventsFired() != ser.EventsFired() {
			t.Fatalf("workers=%d: fired %d events, serial fired %d",
				workers, par.EventsFired(), ser.EventsFired())
		}
		if n := metrics.windows.Value() - windows; n < 2 {
			t.Fatalf("workers=%d: only %d windows — workload never exercised the protocol", workers, n)
		}
	}
}

// TestParallelEngineCausalityPanic pins the lookahead guard: a
// cross-domain event scheduled inside the current window must panic
// rather than silently diverge from the serial order.
func TestParallelEngineCausalityPanic(t *testing.T) {
	p := NewParallelEngine(ParallelConfig{Domains: 2, Lookahead: 100, Workers: 1})
	p.AtCallIn(0, 10, func(s Sched, now Time, arg any) {
		s.AtCallIn(1, now+1, func(Sched, Time, any) {}, nil) // inside the window
	}, nil)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic on lookahead violation")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "lookahead") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	_ = p.Run(nil)
}

// TestParallelEngineRunSemantics checks ErrStalled and done behave like
// the serial engine's Run.
func TestParallelEngineRunSemantics(t *testing.T) {
	p := NewParallelEngine(ParallelConfig{Domains: 2, Lookahead: 10, Workers: 2})
	if err := p.Run(func() bool { return false }); err != ErrStalled {
		t.Fatalf("empty run: %v, want ErrStalled", err)
	}
	fired := 0
	p.AtCallIn(0, 1, func(Sched, Time, any) { fired++ }, nil)
	if err := p.Run(func() bool { return fired > 0 }); err != nil {
		t.Fatalf("done run: %v", err)
	}
	if fired != 1 || p.EventsFired() != 1 {
		t.Fatalf("fired=%d events=%d", fired, p.EventsFired())
	}
	p.AtCallIn(1, 2, func(Sched, Time, any) { fired++ }, nil)
	if err := p.Run(nil); err != nil || fired != 2 {
		t.Fatalf("drained run: %v, fired=%d", err, fired)
	}
}

// TestParallelEngineWindowMetrics checks the window-protocol obs
// instruments fold deterministic totals at the barriers.
func TestParallelEngineWindowMetrics(t *testing.T) {
	r := obs.NewRegistry()
	EnableObs(r)
	defer EnableObs(nil)

	const domains = 3
	rec := trace.NewRecorder(append(trace.DefaultKinds(), trace.KindEngineEvent)...)
	p := NewParallelEngine(ParallelConfig{Domains: domains, Lookahead: churnLookahead, Workers: 2, Tracer: rec})
	runChurn(t, p, domains, rec)

	if got := metrics.windows.Value(); got < 2 {
		t.Fatalf("sim_windows_total = %d, want several windows", got)
	}
	if got := metrics.dispatched.Value(); got != p.EventsFired() {
		t.Fatalf("sim_events_dispatched_total = %d, engine fired %d", got, p.EventsFired())
	}
	if metrics.crossDomainEvents.Value() == 0 {
		t.Fatal("churn workload sent no cross-domain events")
	}
	if metrics.idleDomainWindows.Value() == 0 {
		t.Fatal("no idle domain-windows observed — horizon skew should stall some domains")
	}
}
