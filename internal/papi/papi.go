// Package papi models the hardware-counter measurement of §4.5: an L1
// instruction cache simulator (set-associative, LRU) fed with synthetic
// instruction-fetch traces of virtual ranks interleaved on one core.
//
// The experiment compares TLSglobals (all ranks fetch from one shared
// copy of the code) with PIEglobals (each rank fetches from its own
// duplicated copy). The paper found contradictory results — PIEglobals
// had 22% fewer L1I misses on Bridges-2 (AMD) while TLSglobals had 15%
// fewer on Stampede2 (Intel) — and drew no strong conclusion. The model
// reproduces the mechanism that makes such flips possible: whether code
// sharing wins depends on how the shared copy's hot lines conflict with
// the runtime scheduler's lines in a given cache geometry, versus the
// larger but differently-placed footprint of per-rank copies.
package papi

import (
	"fmt"
	"math/bits"

	"provirt/internal/sim"
)

// Replacement selects a cache line replacement policy.
type Replacement int

const (
	// LRU is true least-recently-used replacement.
	LRU Replacement = iota
	// Random is seeded pseudo-random victim selection, approximating
	// the not-quite-LRU policies of real L1I designs; it degrades
	// gracefully near capacity instead of cliff-thrashing.
	Random
)

// CacheConfig is an L1I geometry.
type CacheConfig struct {
	Name      string
	SizeBytes uint64
	LineBytes uint64
	Ways      int
	Policy    Replacement
}

// Sets returns the number of cache sets.
func (c CacheConfig) Sets() uint64 {
	return c.SizeBytes / (c.LineBytes * uint64(c.Ways))
}

// Validate checks the geometry is realizable.
func (c CacheConfig) Validate() error {
	if c.SizeBytes == 0 || c.LineBytes == 0 || c.Ways <= 0 {
		return fmt.Errorf("papi: cache config %+v has zero fields", c)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("papi: line size %d not a power of two", c.LineBytes)
	}
	if c.SizeBytes%(c.LineBytes*uint64(c.Ways)) != 0 {
		return fmt.Errorf("papi: cache size %d not divisible by line*ways", c.SizeBytes)
	}
	if c.Sets()&(c.Sets()-1) != 0 {
		return fmt.Errorf("papi: set count %d not a power of two", c.Sets())
	}
	return nil
}

// Bridges2L1I approximates the AMD EPYC 7742 (Zen 2) L1 instruction
// cache: 32 KiB, 8-way, 64-byte lines, LRU-like replacement.
func Bridges2L1I() CacheConfig {
	return CacheConfig{Name: "Bridges-2 (AMD EPYC 7742)", SizeBytes: 32 << 10, LineBytes: 64, Ways: 8, Policy: LRU}
}

// Stampede2L1I approximates the Intel Xeon Ice Lake L1 instruction
// cache as a larger, higher-associativity geometry (48 KiB, 12-way,
// 64-byte lines) with randomized replacement: the extra capacity
// absorbs the TLS-inflated shared code that thrashes the AMD geometry,
// while random replacement degrades gracefully instead of cliffing.
func Stampede2L1I() CacheConfig {
	return CacheConfig{Name: "Stampede2 (Intel Xeon Ice Lake)", SizeBytes: 48 << 10, LineBytes: 64, Ways: 12, Policy: Random}
}

// Cache is a set-associative cache with a configurable replacement
// policy.
type Cache struct {
	cfg  CacheConfig
	sets [][]uint64 // per-set line tags; LRU order (front = MRU) under LRU
	rng  *sim.RNG

	// An address's line is addr >> lineShift and a line's set is
	// line & setMask: both sizes are powers of two.
	lineShift uint
	setMask   uint64

	accesses uint64
	misses   uint64
}

// NewCache builds a cache; invalid geometry panics (configs are static
// in this codebase).
func NewCache(cfg CacheConfig) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Sets()
	return &Cache{cfg: cfg, sets: make([][]uint64, sets), rng: sim.NewRNG(0x1cac4e),
		lineShift: uint(bits.TrailingZeros64(cfg.LineBytes)), setMask: sets - 1}
}

// Fetch performs one instruction fetch at addr.
func (c *Cache) Fetch(addr uint64) {
	c.accesses++
	line := addr >> c.lineShift
	set := line & c.setMask
	tags := c.sets[set]
	for i, t := range tags {
		if t == line {
			if c.cfg.Policy == LRU {
				// Hit: move to MRU.
				copy(tags[1:i+1], tags[:i])
				tags[0] = line
			}
			return
		}
	}
	c.misses++
	if len(tags) < c.cfg.Ways {
		if c.cfg.Policy == LRU {
			// Prepend as MRU.
			tags = append(tags, 0)
			copy(tags[1:], tags)
			tags[0] = line
			c.sets[set] = tags
		} else {
			c.sets[set] = append(tags, line)
		}
		return
	}
	switch c.cfg.Policy {
	case Random:
		tags[c.rng.Intn(len(tags))] = line
	default:
		copy(tags[1:], tags)
		tags[0] = line
	}
}

// FetchRange fetches every line in [base, base+size).
func (c *Cache) FetchRange(base, size uint64) {
	last := (base + size - 1) >> c.lineShift
	for l := base >> c.lineShift; l <= last; l++ {
		c.Fetch(l << c.lineShift)
	}
}

// Counters is a PAPI-style readout.
type Counters struct {
	Accesses uint64
	Misses   uint64
}

// Read returns the current counters.
func (c *Cache) Read() Counters { return Counters{Accesses: c.accesses, Misses: c.misses} }

// ExecModel describes the interleaved execution whose fetch stream we
// simulate: several virtual ranks sharing one core, each spinning in a
// hot loop, with the runtime scheduler's code touched at every context
// switch.
type ExecModel struct {
	// RankCodeBases holds each rank's hot-loop base address: identical
	// entries model shared code (TLSglobals); distinct entries model
	// duplicated segments (PIEglobals).
	RankCodeBases []uint64
	// HotBytes is each rank's inner-loop code footprint.
	HotBytes uint64
	// SchedBase and SchedBytes locate the runtime scheduler's hot path,
	// fetched at every context switch.
	SchedBase  uint64
	SchedBytes uint64
	// Switches is the number of round-robin context switches.
	Switches int
	// LoopsPerTurn is how many times a rank traverses its hot loop per
	// scheduling turn.
	LoopsPerTurn int
	// RankExtraBytes is a per-rank code section (boundary handling,
	// rank-specific branches) fetched once per turn. Under shared code
	// each rank's section is a distinct region of the one binary;
	// under duplicated code it lives in the rank's own copy. Either
	// way the sections are distinct lines, so they grow the combined
	// working set with the rank count.
	RankExtraBytes uint64
}

// Simulate runs the fetch stream through a fresh cache of the given
// geometry and returns the counters.
func Simulate(cfg CacheConfig, m ExecModel) Counters {
	c := NewCache(cfg)
	n := len(m.RankCodeBases)
	if n == 0 || m.Switches == 0 {
		return c.Read()
	}
	for s := 0; s < m.Switches; s++ {
		c.FetchRange(m.SchedBase, m.SchedBytes)
		rank := s % n
		base := m.RankCodeBases[rank]
		for l := 0; l < m.LoopsPerTurn; l++ {
			c.FetchRange(base, m.HotBytes)
		}
		if m.RankExtraBytes > 0 {
			// The rank-specific section sits past the hot loop; under
			// shared code the per-rank offset spreads the sections
			// through the binary.
			extraBase := base + m.HotBytes + uint64(rank)*m.RankExtraBytes
			c.FetchRange(extraBase, m.RankExtraBytes)
		}
	}
	return c.Read()
}
