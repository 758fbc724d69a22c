package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdersEventsByTime(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.Drain()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("fired in order %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("clock at %v, want 30", e.Now())
	}
}

func TestEngineTieBreaksBySchedulingOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Drain()
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events fired as %v", order)
		}
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {})
	e.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past must panic")
		}
	}()
	e.At(50, func() {})
}

func TestEngineRunStalls(t *testing.T) {
	e := NewEngine()
	err := e.Run(func() bool { return false })
	if err != ErrStalled {
		t.Fatalf("got %v, want ErrStalled", err)
	}
}

func TestEngineRunDone(t *testing.T) {
	e := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < 5 {
			e.At(e.Now()+1, tick)
		}
	}
	e.At(1, tick)
	if err := e.Run(func() bool { return n >= 3 }); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("done predicate stopped at n=%d", n)
	}
}

func TestEngineHalt(t *testing.T) {
	e := NewEngine()
	n := 0
	e.At(1, func() { n++; e.Halt() })
	e.At(2, func() { n++ })
	if err := e.Run(nil); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("halt did not stop the loop; n=%d", n)
	}
}

// Property: for any set of non-negative delays, events fire in
// non-decreasing time order and the clock ends at the max.
func TestEngineOrderingProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var fired []Time
		var max Time
		for _, d := range delays {
			d := Time(d)
			if d > max {
				max = d
			}
			e.At(d, func() { fired = append(fired, e.Now()) })
		}
		e.Drain()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(delays) == 0 || e.Now() == max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEngineFiresInTimeThenSchedulingOrder drives the heap with bursts
// of events over few distinct times, so many of them tie, scheduled both
// from outside and from callbacks, and checks every firing against a
// linear scan for the pending event with the least (time, sequence).
func TestEngineFiresInTimeThenSchedulingOrder(t *testing.T) {
	type pending struct {
		at  Time
		seq int
	}
	rng := NewRNG(3)
	e := NewEngine()
	var ref []pending // what the engine should hold, in scheduling order
	seq := 0
	var fire func(any)
	schedule := func(at Time) {
		ref = append(ref, pending{at, seq})
		e.AtCall(at, fire, seq)
		seq++
	}
	fire = func(x any) {
		min := 0
		for i, p := range ref {
			if p.at < ref[min].at || p.at == ref[min].at && p.seq < ref[min].seq {
				min = i
			}
		}
		if want := ref[min]; x.(int) != want.seq || e.Now() != want.at {
			t.Fatalf("fired event %d at %v, want event %d at %v", x.(int), e.Now(), want.seq, want.at)
		}
		ref = append(ref[:min], ref[min+1:]...)
		for n := rng.Intn(3); n > 0 && seq < 20_000; n-- {
			schedule(e.Now() + Time(rng.Intn(3)))
		}
	}
	for round := 0; round < 200; round++ {
		for n := rng.Intn(40); n > 0; n-- {
			schedule(e.Now() + Time(rng.Intn(4)*rng.Intn(30)))
		}
		for n := rng.Intn(60); n > 0 && e.Step(); n-- {
		}
	}
	e.Drain()
	if len(ref) != 0 || seq < 1000 {
		t.Fatalf("%d events left unfired of %d scheduled", len(ref), seq)
	}
}

func TestEngineAtCall(t *testing.T) {
	e := NewEngine()
	var got []int
	record := func(x any) { got = append(got, x.(int)) }
	e.AtCall(20, record, 2)
	e.AtCall(10, record, 1)
	e.At(15, func() { got = append(got, 99) })
	e.Drain()
	if len(got) != 3 || got[0] != 1 || got[1] != 99 || got[2] != 2 {
		t.Fatalf("AtCall fired as %v", got)
	}
}

// Steady-state scheduling must not allocate: the queue holds events by
// value once it has grown.
func TestEngineEventPooling(t *testing.T) {
	e := NewEngine()
	tick := func(any) {}
	var next Time
	allocs := testing.AllocsPerRun(1000, func() {
		next += 1
		e.AtCall(next, tick, nil)
		e.Step()
	})
	if allocs > 0.1 {
		t.Fatalf("steady-state AtCall+Step allocates %.1f per op, want 0", allocs)
	}
}

func BenchmarkEngineSchedule(b *testing.B) {
	e := NewEngine()
	fn := func(any) {}
	// Keep a standing queue so sift depth is realistic.
	for i := 0; i < 256; i++ {
		e.AtCall(Time(i+1), fn, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var at Time
	for i := 0; i < b.N; i++ {
		at++
		e.AtCall(at+256, fn, nil)
		e.Step()
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(8)
	same := 0
	a = NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collided %d/1000 times", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGIntnUniformish(t *testing.T) {
	r := NewRNG(11)
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Intn(10)]++
	}
	for d, c := range counts {
		if c < n/10-n/50 || c > n/10+n/50 {
			t.Errorf("digit %d count %d far from %d", d, c, n/10)
		}
	}
}

func TestRNGFork(t *testing.T) {
	a := NewRNG(9).Fork(1)
	b := NewRNG(9).Fork(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("forked streams correlated: %d collisions", same)
	}
}
