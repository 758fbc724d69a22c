package obs

import (
	"strings"
	"sync"
	"testing"
)

// Nil instruments are the metrics-off fast path: every method must be
// a safe no-op.
func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(7)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	var g *Gauge
	g.SetMax(9)
	if g.Value() != 0 {
		t.Fatal("nil gauge has a value")
	}
	var h *Histogram
	h.Observe(3)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram has observations")
	}
	if b, c := h.Snapshot(); b != nil || c != nil {
		t.Fatal("nil histogram has buckets")
	}
	var r *Registry
	if r.Counter("x", "") != nil || r.Gauge("y", "") != nil || r.Histogram("z", "", nil) != nil {
		t.Fatal("nil registry handed out instruments")
	}
	if err := r.WriteText(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

func TestCounterAndGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "test counter")
	g := r.Gauge("g", "test gauge")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.SetMax(int64(w*1000 + i))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	// The maximum across all workers' sequences is deterministic even
	// though the interleaving is not.
	if g.Value() != 7999 {
		t.Fatalf("gauge high water = %d, want 7999", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("depth", "test", []uint64{1, 4, 16})
	for _, v := range []uint64{0, 1, 2, 4, 5, 16, 17, 1000} {
		h.Observe(v)
	}
	bounds, counts := h.Snapshot()
	if len(bounds) != 3 || len(counts) != 4 {
		t.Fatalf("shape: %v %v", bounds, counts)
	}
	// <=1: {0,1}; <=4: {2,4}; <=16: {5,16}; +Inf: {17,1000}
	want := []uint64{2, 2, 2, 2}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, counts[i], want[i], counts)
		}
	}
	if h.Count() != 8 || h.Sum() != 0+1+2+4+5+16+17+1000 {
		t.Fatalf("count %d sum %d", h.Count(), h.Sum())
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 4, 4)
	want := []uint64{1, 4, 16, 64}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup", "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Gauge("dup", "")
}

// The text snapshot must be sorted by name, skip volatile instruments,
// and be identical across renderings.
func TestWriteTextDeterministicAndSkipsVolatile(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total", "last").Add(3)
	r.Counter("aa_total", "first").Add(1)
	r.Gauge("mm_gauge", "middle").SetMax(2)
	r.Histogram("hh_depth", "hist", []uint64{2, 8}).Observe(5)
	r.Histogram("vv_wall_us", "volatile hist", []uint64{10}, Volatile()).Observe(3)
	r.Counter("vv_total", "volatile counter", Volatile()).Inc()

	var a, b strings.Builder
	if err := r.WriteText(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("text snapshot unstable:\n%s\nvs\n%s", a.String(), b.String())
	}
	got := a.String()
	want := strings.Join([]string{
		"aa_total 1",
		`hh_depth_bucket{le="2"} 0`,
		`hh_depth_bucket{le="8"} 1`,
		`hh_depth_bucket{le="+Inf"} 1`,
		"hh_depth_count 1",
		"hh_depth_sum 5",
		"mm_gauge 2",
		"zz_total 3",
	}, "\n") + "\n"
	if got != want {
		t.Fatalf("text snapshot:\n%s\nwant:\n%s", got, want)
	}
	if strings.Contains(got, "vv_") {
		t.Fatal("volatile instrument leaked into the deterministic snapshot")
	}

	var p strings.Builder
	if err := r.WritePrometheus(&p); err != nil {
		t.Fatal(err)
	}
	prom := p.String()
	for _, frag := range []string{
		"# TYPE aa_total counter", "# TYPE mm_gauge gauge", "# TYPE hh_depth histogram",
		"vv_total 1", `vv_wall_us_bucket{le="10"} 1`,
	} {
		if !strings.Contains(prom, frag) {
			t.Fatalf("prometheus output missing %q:\n%s", frag, prom)
		}
	}
}
