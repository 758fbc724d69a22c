// Package obs is the host-side metrics subsystem: cheap always-on
// counters, gauges, and fixed-bucket histograms over the *runtime that
// executes simulations* — engine dispatch rates, matchqueue depths,
// snapshot byte volumes, sweep-worker throughput. It is the host-time
// complement of package trace, which observes the simulated world in
// virtual time.
//
// The discipline mirrors the nil *trace.Recorder's: every instrument is
// a pointer whose methods are no-ops on a nil receiver, so an
// un-instrumented run pays exactly one pointer comparison per hook
// site. Instrumented packages hold package-level instrument pointers
// (nil by default) and expose an EnableObs(*Registry) that populates
// them; passing a nil registry restores the no-op state.
//
// Instruments never feed back into the simulation: no hook reads a
// metric, advances a clock, or perturbs scheduling, so runs with
// metrics enabled are bit-identical to runs without (pinned by the
// harness determinism tests). Counter and histogram updates are
// atomic, so concurrently sweeping worlds share instruments safely,
// and because addition and maximum are order-independent, the
// *aggregate* values of deterministic instruments are themselves
// deterministic at any sweep parallelism. Instruments whose values
// depend on host timing or scheduling (wall-time histograms,
// per-worker attribution) are registered as volatile and excluded
// from the deterministic text snapshot.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. The nil Counter is a
// valid no-op instrument.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value reads the counter (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a high-water mark, written only by SetMax. The nil Gauge
// is a valid no-op instrument.
type Gauge struct {
	v atomic.Int64
}

// SetMax raises the gauge to v if v exceeds the current value — the
// high-water-mark update. Maximum is order-independent, so concurrent
// SetMax calls from sweep workers converge on the same value
// regardless of interleaving.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value reads the gauge (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets chosen at
// registration. The nil Histogram is a valid no-op instrument.
type Histogram struct {
	// bounds are ascending inclusive upper bounds; an implicit +Inf
	// bucket catches everything above the last bound.
	bounds  []uint64
	buckets []atomic.Uint64 // len(bounds)+1
	count   atomic.Uint64
	sum     atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	// Linear scan: bucket lists are short (a dozen bounds) and the
	// common case lands in the first few, which beats a binary search's
	// branch misses at this size.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count reports the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reports the sum of observed values (0 on nil).
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Snapshot returns the bucket bounds and per-bucket counts (the last
// count is the +Inf bucket, so len(counts) == len(bounds)+1).
func (h *Histogram) Snapshot() (bounds []uint64, counts []uint64) {
	if h == nil {
		return nil, nil
	}
	bounds = h.bounds
	counts = make([]uint64, len(h.buckets))
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
	}
	return bounds, counts
}

// ExpBuckets builds n ascending bounds starting at start and growing
// by factor — the standard shape for depth and byte-size histograms.
func ExpBuckets(start, factor uint64, n int) []uint64 {
	if start == 0 {
		start = 1
	}
	if factor < 2 {
		factor = 2
	}
	out := make([]uint64, 0, n)
	for v := start; len(out) < n; v *= factor {
		out = append(out, v)
	}
	return out
}

// metricKind tags what a registry entry holds.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// metric is one registered instrument plus its metadata.
type metric struct {
	name, help string
	kind       metricKind
	// volatile marks instruments whose values depend on host timing or
	// goroutine scheduling; the deterministic text snapshot skips them.
	volatile bool

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Option adjusts a registration.
type Option func(*metric)

// Volatile marks the instrument as host-timing-dependent: it is served
// on /metrics but excluded from the deterministic text snapshot.
func Volatile() Option {
	return func(m *metric) { m.volatile = true }
}

// Registry names and owns instruments. The nil Registry hands out nil
// instruments, so a package's EnableObs(nil) is exactly "metrics off".
type Registry struct {
	mu     sync.Mutex
	byName map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

// register adds the entry or panics on a duplicate name: two packages
// claiming one name is a programming error worth failing fast on.
func (r *Registry) register(m *metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byName[m.name]; ok {
		panic(fmt.Sprintf("obs: duplicate metric %q", m.name))
	}
	r.byName[m.name] = m
}

// Counter registers and returns a counter (nil on a nil registry).
func (r *Registry) Counter(name, help string, opts ...Option) *Counter {
	if r == nil {
		return nil
	}
	m := &metric{name: name, help: help, kind: kindCounter, counter: &Counter{}}
	for _, o := range opts {
		o(m)
	}
	r.register(m)
	return m.counter
}

// Gauge registers and returns a gauge (nil on a nil registry).
func (r *Registry) Gauge(name, help string, opts ...Option) *Gauge {
	if r == nil {
		return nil
	}
	m := &metric{name: name, help: help, kind: kindGauge, gauge: &Gauge{}}
	for _, o := range opts {
		o(m)
	}
	r.register(m)
	return m.gauge
}

// Histogram registers and returns a fixed-bucket histogram (nil on a
// nil registry). bounds must be ascending.
func (r *Registry) Histogram(name, help string, bounds []uint64, opts ...Option) *Histogram {
	if r == nil {
		return nil
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending: %v", name, bounds))
		}
	}
	h := &Histogram{bounds: bounds, buckets: make([]atomic.Uint64, len(bounds)+1)}
	m := &metric{name: name, help: help, kind: kindHistogram, hist: h}
	for _, o := range opts {
		o(m)
	}
	r.register(m)
	return m.hist
}

// sorted returns the registered metrics ordered by name, so every
// rendering is independent of registration and map iteration order.
func (r *Registry) sorted() []*metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*metric, 0, len(r.byName))
	for _, m := range r.byName {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
