package papi

import (
	"testing"
	"testing/quick"
)

func tinyCache(ways int, policy Replacement) CacheConfig {
	return CacheConfig{Name: "tiny", SizeBytes: uint64(ways) * 4 * 64, LineBytes: 64, Ways: ways, Policy: policy}
	// 4 sets.
}

// missRate returns misses/accesses.
func missRate(k Counters) float64 {
	if k.Accesses == 0 {
		return 0
	}
	return float64(k.Misses) / float64(k.Accesses)
}

func TestConfigValidate(t *testing.T) {
	if Bridges2L1I().Validate() != nil || Stampede2L1I().Validate() != nil {
		t.Fatal("site configs invalid")
	}
	bad := CacheConfig{SizeBytes: 1000, LineBytes: 64, Ways: 3}
	if bad.Validate() == nil {
		t.Fatal("non-divisible geometry accepted")
	}
	if (CacheConfig{}).Validate() == nil {
		t.Fatal("zero geometry accepted")
	}
	// Four sets of two 48-byte lines: the set count is a power of two,
	// the line size is not.
	if (CacheConfig{SizeBytes: 384, LineBytes: 48, Ways: 2}).Validate() == nil {
		t.Fatal("non-power-of-two line size accepted")
	}
}

func TestSets(t *testing.T) {
	if s := Bridges2L1I().Sets(); s != 64 {
		t.Fatalf("Bridges-2 sets = %d", s)
	}
	if s := Stampede2L1I().Sets(); s != 64 {
		t.Fatalf("Stampede2 sets = %d", s)
	}
}

func TestHitsAndMisses(t *testing.T) {
	c := NewCache(tinyCache(2, LRU))
	c.Fetch(0)
	c.Fetch(0)
	c.Fetch(64)
	k := c.Read()
	if k.Accesses != 3 || k.Misses != 2 {
		t.Fatalf("counters %+v", k)
	}
	if missRate(k) != 2.0/3.0 {
		t.Fatalf("miss rate %v", missRate(k))
	}
}

func TestLRUEviction(t *testing.T) {
	// 4 sets, 2 ways: lines 0, 4, 8 all map to set 0.
	c := NewCache(tinyCache(2, LRU))
	addr := func(line uint64) uint64 { return line * 64 * 4 } // stay in set 0
	c.Fetch(addr(0))
	c.Fetch(addr(1))
	c.Fetch(addr(0)) // refresh 0: LRU victim is now 1
	c.Fetch(addr(2)) // evicts 1
	c.Fetch(addr(0)) // hit
	k := c.Read()
	if k.Misses != 3 {
		t.Fatalf("misses %d, want 3 (0,1,2 cold; final 0 hits)", k.Misses)
	}
	c.Fetch(addr(1)) // was evicted: miss
	if c.Read().Misses != 4 {
		t.Fatal("evicted line hit")
	}
}

func TestFetchRangeCountsLines(t *testing.T) {
	c := NewCache(Bridges2L1I())
	c.FetchRange(10, 64) // spans two lines (10..73)
	if k := c.Read(); k.Accesses != 2 {
		t.Fatalf("accesses %d, want 2", k.Accesses)
	}
	c = NewCache(Bridges2L1I())
	c.FetchRange(0, 4096)
	if k := c.Read(); k.Accesses != 64 || k.Misses != 64 {
		t.Fatalf("range fetch %+v", k)
	}
}

func TestWorkingSetFitsNoSteadyMisses(t *testing.T) {
	cfg := Bridges2L1I()
	c := NewCache(cfg)
	// 16 KiB working set in a 32 KiB cache: after the cold pass, no
	// further misses under LRU.
	for pass := 0; pass < 10; pass++ {
		c.FetchRange(0, 16<<10)
	}
	k := c.Read()
	if k.Misses != (16<<10)/64 {
		t.Fatalf("misses %d, want cold misses only (%d)", k.Misses, (16<<10)/64)
	}
}

func TestCyclicOverflowThrashesLRU(t *testing.T) {
	cfg := Bridges2L1I()
	c := NewCache(cfg)
	// 40 KiB cyclic in a 32 KiB LRU cache: every access misses.
	for pass := 0; pass < 3; pass++ {
		c.FetchRange(0, 40<<10)
	}
	k := c.Read()
	if k.Misses != k.Accesses {
		t.Fatalf("LRU cyclic overflow should thrash: %d/%d", k.Misses, k.Accesses)
	}
}

func TestRandomReplacementDegradesGracefully(t *testing.T) {
	cfg := Stampede2L1I() // random policy
	c := NewCache(cfg)
	// Slightly-overflowing cyclic workload: random replacement should
	// hit sometimes, unlike LRU's 100% miss.
	for pass := 0; pass < 20; pass++ {
		c.FetchRange(0, 56<<10)
	}
	k := c.Read()
	if k.Misses == k.Accesses {
		t.Fatal("random replacement thrashed like LRU")
	}
	if missRate(k) < 0.05 {
		t.Fatalf("miss rate %.3f implausibly low for an overflowing set", missRate(k))
	}
}

func TestSimulateDeterministic(t *testing.T) {
	m := ExecModel{
		RankCodeBases:  []uint64{0x1000, 0x200000},
		HotBytes:       8 << 10,
		SchedBase:      0x800000,
		SchedBytes:     1 << 10,
		Switches:       100,
		LoopsPerTurn:   2,
		RankExtraBytes: 1 << 10,
	}
	a := Simulate(Stampede2L1I(), m)
	b := Simulate(Stampede2L1I(), m)
	if a != b {
		t.Fatalf("random-policy simulation not reproducible: %+v vs %+v", a, b)
	}
	if a.Accesses == 0 || a.Misses == 0 {
		t.Fatal("degenerate simulation")
	}
}

func TestSimulateEmptyModel(t *testing.T) {
	k := Simulate(Bridges2L1I(), ExecModel{})
	if k.Accesses != 0 {
		t.Fatal("empty model fetched")
	}
}

// Property: misses never exceed accesses, and a shared-base model
// never misses more than a duplicated-base model with the same
// footprint under LRU (sharing can only help when everything else is
// equal).
func TestSharingNeverHurtsEqualFootprintLRU(t *testing.T) {
	f := func(hotKB, schedKB uint8, ranks8 uint8) bool {
		ranks := int(ranks8%6) + 2
		hot := (uint64(hotKB%24) + 1) << 10
		sched := (uint64(schedKB%8) + 1) << 10
		shared := make([]uint64, ranks)
		dup := make([]uint64, ranks)
		for i := range shared {
			shared[i] = 0x40000000
			dup[i] = 0x40000000 + uint64(i)*(1<<24)
		}
		mk := func(bases []uint64) ExecModel {
			return ExecModel{
				RankCodeBases: bases, HotBytes: hot,
				SchedBase: 0x10000000, SchedBytes: sched,
				Switches: 256, LoopsPerTurn: 1,
			}
		}
		cfg := Bridges2L1I()
		s := Simulate(cfg, mk(shared))
		d := Simulate(cfg, mk(dup))
		if s.Misses > s.Accesses || d.Misses > d.Accesses {
			return false
		}
		return s.Misses <= d.Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCacheSimFetch(b *testing.B) {
	c := NewCache(Bridges2L1I())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Fetch(uint64(i) * 64)
	}
}
