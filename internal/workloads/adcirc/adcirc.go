// Package adcirc is a surrogate for ADCIRC, the production Fortran
// storm-surge simulation the paper validates PIEglobals on (§4.6).
//
// ADCIRC models rising ocean waters flooding over coastal terrain; the
// computationally intensive parts of the domain follow the water as it
// spreads, while dry areas have little to no work. The surrogate keeps
// exactly that load structure: a 2-D coastal grid, row-decomposed
// across virtual ranks, with a storm front that moves across the domain
// wetting cells near its track. Per-step compute cost is proportional
// to a rank's wet cells, so the hotspot migrates through rank
// subdomains over time — the dynamic imbalance that makes
// overdecomposition plus GreedyRefineLB effective.
//
// Like the real code, the surrogate's binary image carries hundreds of
// mutable global variables across a ~14 MB code segment — the code size
// that makes PIEglobals migration measurably more expensive (Fig. 8).
package adcirc

import (
	"fmt"
	"math"
	"sync"

	"provirt/internal/ampi"
	"provirt/internal/elf"
	"provirt/internal/sim"
)

// Config sizes one surge simulation.
type Config struct {
	// Width, Height are the global grid dimensions (Height rows are
	// decomposed across ranks).
	Width, Height int
	// Steps is the number of timesteps.
	Steps int
	// LBPeriod calls AMPI_Migrate every that many steps (0 = never).
	LBPeriod int
	// WetFlops and DryFlops are per-cell work for wet and dry cells.
	WetFlops int
	DryFlops int
	// StormRadius is the wet front's initial radius in cells.
	StormRadius float64
	// StormGrowth is the relative radius growth over the run: the
	// radius ends at StormRadius * (1 + StormGrowth). Surge flooding
	// is growth-dominated — water spreads over the floodplain — which
	// is what keeps load distributions valid between balancing steps.
	StormGrowth float64
	// CacheL2Bytes models per-core L2; a rank whose working set fits
	// gets CacheSpeedup on its compute charge (the cache-blocking
	// benefit of overdecomposition the paper observes even on one
	// core).
	CacheL2Bytes uint64
	CacheSpeedup float64
	// HeapBytesPerCell models user heap per owned cell (mesh arrays),
	// contributing to migration payloads.
	HeapBytesPerCell uint64
}

// DefaultConfig returns the configuration used by the Table 2 / Fig. 9
// experiments (scaled down from production size but preserving the
// imbalance structure).
func DefaultConfig() Config {
	return Config{
		Width:            384,
		Height:           512,
		Steps:            48,
		LBPeriod:         8,
		WetFlops:         2200,
		DryFlops:         40,
		StormRadius:      24,
		StormGrowth:      4,
		CacheL2Bytes:     512 << 10, // EPYC 7742: 512 KiB L2 per core
		CacheSpeedup:     0.85,
		HeapBytesPerCell: 64,
	}
}

// CodeSegmentBytes is the surrogate's code footprint, matching the
// ~14 MB the paper reports for ADCIRC under PIEglobals.
const CodeSegmentBytes = 14 << 20

// NumGlobals is the number of mutable global variables in the image;
// the paper describes "hundreds of mutable global variables across
// nearly 50,000 source lines".
const NumGlobals = 320

// Image returns the ADCIRC surrogate binary image: hundreds of tagged
// mutable Fortran module variables and common blocks, a 14 MB code
// segment, and a handful of entry points. It is built once per process
// and shared by every world that loads it: an image is immutable once
// built, and its layout is computed once.
func Image() *elf.Image { return image() }

var image = sync.OnceValue(func() *elf.Image {
	b := elf.NewBuilder("adcirc").Language("fortran")
	for i := 0; i < NumGlobals; i++ {
		name := fmt.Sprintf("global_%03d", i)
		switch i % 3 {
		case 0:
			b.TaggedGlobal(name, uint64(i))
		case 1:
			b.TaggedStatic(name, uint64(i)) // implicit-save locals
		default:
			b.TaggedGlobal(name, 0) // common blocks
		}
	}
	b.Const("gravity", math.Float64bits(9.81))
	b.Func("main", 16<<10).
		Func("timestep", 64<<10).
		Func("wetdry_check", 32<<10).
		Func("momentum_solve", 96<<10).
		Func("continuity_solve", 64<<10).
		Func("boundary_forcing", 24<<10).
		CodeBulk(CodeSegmentBytes).
		DataBulk(2 << 20).
		RODataBulk(1 << 20). // nodal lookup tables, basis constants
		Relocations(4096)
	return b.MustBuild()
})

// Result summarizes one rank's run.
type Result struct {
	VP int
	// WetCellSteps is the rank's total wet-cell updates — the "water
	// volume" invariant tests compare across decompositions.
	WetCellSteps uint64
	// MaxStepLoad is the rank's largest single-step wet count,
	// indicating how concentrated the hotspot got.
	MaxStepLoad int
}

// storm returns the front's center at step t: landfall near the lower
// quarter of the domain, drifting slowly as the surge spreads.
func storm(cfg Config, t int) (x, y float64) {
	frac := float64(t) / float64(cfg.Steps)
	x = (0.3 + 0.4*frac) * float64(cfg.Width)
	y = (0.3 + 0.35*frac) * float64(cfg.Height)
	return x, y
}

// Radius returns the wet front's radius at step t.
func Radius(cfg Config, t int) float64 {
	frac := float64(t) / float64(cfg.Steps)
	return cfg.StormRadius * (1 + cfg.StormGrowth*frac)
}

// WetCount returns the number of wet cells in rows [r0, r1) at step t.
// The wet region is a disk, so each row's wet span is computed
// analytically.
func WetCount(cfg Config, r0, r1, t int) int {
	sx, sy := storm(cfg, t)
	r := Radius(cfg, t)
	n := 0
	for y := r0; y < r1; y++ {
		dy := float64(y) - sy
		d2 := r*r - dy*dy
		if d2 < 0 {
			continue
		}
		half := math.Sqrt(d2)
		// Cells x with (x-sx)^2 <= d2: x in [ceil(sx-half), floor(sx+half)].
		lo := int(math.Ceil(sx - half))
		hi := int(math.Floor(sx + half))
		if lo < 0 {
			lo = 0
		}
		if hi >= cfg.Width {
			hi = cfg.Width - 1
		}
		if hi >= lo {
			n += hi - lo + 1
		}
	}
	return n
}

// New returns the surge program.
func New(cfg Config, results func(Result)) *ampi.Program {
	return &ampi.Program{
		Image: Image(),
		Main:  func(r *ampi.Rank) { runRank(cfg, r, results) },
	}
}

func rows(cfg Config, v, vp int) (r0, r1 int) {
	r0 = vp * cfg.Height / v
	r1 = (vp + 1) * cfg.Height / v
	return r0, r1
}

func runRank(cfg Config, r *ampi.Rank, results func(Result)) {
	v := r.Size()
	me := r.Rank()
	r0, r1 := rows(cfg, v, me)
	myRows := r1 - r0
	cells := uint64(myRows) * uint64(cfg.Width)

	if cfg.HeapBytesPerCell > 0 && cells > 0 {
		if _, err := r.Ctx().Heap.AllocBallast(cells*cfg.HeapBytesPerCell, "mesh-arrays"); err != nil {
			panic(err)
		}
	}

	// The timestep loop references module variables pervasively; a few
	// representative privatized accesses per cell are charged below.
	flop := r.World().Cluster.Cost.FlopTime
	workingSet := cells * 16 // two fields of 8 bytes
	cacheFactor := 1.0
	if cfg.CacheL2Bytes > 0 && workingSet > 0 && workingSet <= cfg.CacheL2Bytes {
		cacheFactor = cfg.CacheSpeedup
	}

	// One representative module variable, resolved once and held across
	// the timestep loop (the handle survives LB migrations).
	g0 := r.Ctx().Var("global_000")

	var volume uint64
	maxStep := 0
	haloBytes := uint64(cfg.Width) * 8
	for t := 0; t < cfg.Steps; t++ {
		// Exchange water-height halos with row neighbors.
		reqs := make([]*ampi.Request, 0, 2)
		if me > 0 {
			reqs = append(reqs, r.Irecv(me-1, t*2, nil))
		}
		if me < v-1 {
			reqs = append(reqs, r.Irecv(me+1, t*2, nil))
		}
		if me > 0 {
			r.Send(me-1, t*2, nil, haloBytes)
		}
		if me < v-1 {
			r.Send(me+1, t*2, nil, haloBytes)
		}
		r.Waitall(reqs)

		wetCells := WetCount(cfg, r0, r1, t)
		dryCells := int(cells) - wetCells
		work := sim.Time(wetCells)*sim.Time(cfg.WetFlops) + sim.Time(dryCells)*sim.Time(cfg.DryFlops)
		r.Compute(sim.Time(float64(work) * cacheFactor * float64(flop)))
		g0.Charge(uint64(wetCells) * 4)
		g0.Store(uint64(t))

		volume += uint64(wetCells)
		if wetCells > maxStep {
			maxStep = wetCells
		}

		if cfg.LBPeriod > 0 && (t+1)%cfg.LBPeriod == 0 && t+1 < cfg.Steps {
			r.Migrate()
		}
	}
	// Global volume check keeps every rank honest about its share.
	r.Allreduce([]float64{float64(volume)}, ampi.OpSum)
	if results != nil {
		results(Result{VP: me, WetCellSteps: volume, MaxStepLoad: maxStep})
	}
}

// TotalWetCellSteps computes the oracle water volume: the sum of wet
// cells over all steps, independent of decomposition.
func TotalWetCellSteps(cfg Config) uint64 {
	var total uint64
	for t := 0; t < cfg.Steps; t++ {
		total += uint64(WetCount(cfg, 0, cfg.Height, t))
	}
	return total
}
