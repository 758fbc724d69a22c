package trace

import (
	"sync"
	"testing"
)

func TestMemGaugeTracksBuildAndPeak(t *testing.T) {
	g := NewMemGauge()
	// Retain an allocation so the sampled heap genuinely grows past the
	// baseline; the sink assignment keeps the compiler from eliding it.
	buf := make([]byte, 8<<20)
	for i := range buf {
		buf[i] = byte(i)
	}
	g.SampleBuild()
	if g.BuildBytes == 0 {
		t.Fatal("BuildBytes = 0 after retaining 8 MiB past the baseline")
	}
	if g.PeakBytes < g.BuildBytes {
		t.Fatalf("peak %d below build %d: SampleBuild must count toward the peak", g.PeakBytes, g.BuildBytes)
	}
	g.Sample()
	if g.PeakBytes < g.BuildBytes {
		t.Fatalf("peak %d fell below build %d after Sample", g.PeakBytes, g.BuildBytes)
	}
	sink = buf
}

// sink keeps test allocations reachable across sample points.
var sink []byte

// A zero-rank world divides by nothing: PerRank(0) (and negative
// counts) must report zeros, not panic.
func TestMemGaugeZeroRankWorld(t *testing.T) {
	g := NewMemGauge()
	g.SampleBuild()
	for _, vps := range []int{0, -1} {
		build, peak := g.PerRank(vps)
		if build != 0 || peak != 0 {
			t.Errorf("PerRank(%d) = (%d, %d), want (0, 0)", vps, build, peak)
		}
	}
	if build, _ := g.PerRank(1); build != g.BuildBytes {
		t.Errorf("PerRank(1) build = %d, want %d", build, g.BuildBytes)
	}
}

// Parallel sweep workers fold readings into one gauge; concurrent
// Sample/PerRank must be race-free and the peak must end at least as
// high as any single sample (run with -race to make this bite).
func TestMemGaugeConcurrentSampling(t *testing.T) {
	g := NewMemGauge()
	g.SampleBuild()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				g.Sample()
				g.PerRank(4)
			}
		}()
	}
	wg.Wait()
	if g.PeakBytes < g.BuildBytes {
		t.Fatalf("peak %d below build %d after concurrent sampling", g.PeakBytes, g.BuildBytes)
	}
}

// TestMemGauge exercises the gauge's clamping and per-rank division.
func TestMemGauge(t *testing.T) {
	g := NewMemGauge()
	g.SampleBuild()
	hold := make([]byte, 1<<20)
	for i := range hold {
		hold[i] = byte(i)
	}
	g.Sample()
	if g.PeakBytes < g.BuildBytes {
		t.Fatalf("peak %d below build %d", g.PeakBytes, g.BuildBytes)
	}
	if hold[len(hold)-1] == 0 { // keep hold live past Sample
		t.Fatal("unreachable")
	}
	b, p := g.PerRank(0)
	if b != 0 || p != 0 {
		t.Fatal("PerRank(0) must be zero")
	}
}
