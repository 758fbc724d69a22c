// Package amr is an adaptive-mesh-refinement surrogate for the
// multiscale workloads the paper's introduction motivates ("multiscale
// or other dynamic methods to increase simulation resolution only where
// needed, in areas of interest").
//
// The domain is a grid of coarse blocks, assigned to virtual ranks in
// spatially contiguous tiles. A moving feature (a shock front crossing
// the domain)
// forces blocks near it to refine; a block at refinement level L costs
// 4^L times the coarse work and exchanges proportionally larger halos.
// As the front moves, refinement — and therefore load — migrates
// through the block ownership map, producing a different imbalance
// structure than the ADCIRC surrogate's wet/dry regions: work
// multiplies in place across several levels rather than switching
// on/off.
package amr

import (
	"math"
	"sync"

	"provirt/internal/ampi"
	"provirt/internal/elf"
	"provirt/internal/sim"
)

// Config sizes one AMR run.
type Config struct {
	// BlocksX, BlocksY are the coarse block grid dimensions.
	BlocksX, BlocksY int
	// BlockCells is the cells per coarse block edge (a block holds
	// BlockCells^2 cells at level 0).
	BlockCells int
	// MaxLevel is the deepest refinement level.
	MaxLevel int
	// Steps is the number of timesteps.
	Steps int
	// RegridEvery calls AMPI_Migrate after every that many steps
	// (0 = never).
	RegridEvery int
	// FlopsPerCell is the per-cell work at any level.
	FlopsPerCell int
	// FrontWidth is the refinement halo around the feature, in block
	// units per level (blocks within FrontWidth*(MaxLevel-L+1) of the
	// front refine to at least level L).
	FrontWidth float64
}

// DefaultConfig returns a deterministic mid-size problem.
func DefaultConfig() Config {
	return Config{
		BlocksX:      24,
		BlocksY:      24,
		BlockCells:   16,
		MaxLevel:     3,
		Steps:        32,
		RegridEvery:  8,
		FlopsPerCell: 40,
		FrontWidth:   1.0,
	}
}

// Image returns the AMR program image: a C++ code with per-rank mesh
// metadata in tagged globals and a moderate code segment. It is built
// once per process and shared by every world that loads it.
func Image() *elf.Image { return image() }

var image = sync.OnceValue(func() *elf.Image {
	return elf.NewBuilder("amr").
		Language("c++").
		TaggedGlobal("num_blocks_owned", 0).
		TaggedGlobal("max_level_seen", 0).
		TaggedGlobal("step", 0).
		TaggedStatic("regrid_count", 0).
		Const("max_level_cfg", 8).
		Func("main", 8192).
		Func("advance_block", 32<<10).
		Func("refine_check", 16<<10).
		Func("exchange_fluxes", 16<<10).
		CodeBulk(6 << 20).
		DataBulk(1 << 20).
		MustBuild()
})

// frontPos returns the shock front's x-position (in block units) at
// step t: it sweeps across the domain once over the run.
func frontPos(cfg Config, t int) float64 {
	return float64(cfg.BlocksX) * float64(t) / float64(cfg.Steps)
}

// Level returns block (bx, by)'s refinement level at step t.
func Level(cfg Config, bx, by, t int) int {
	// Distance from the block center to the front line, with a mild
	// vertical bow so the front is not axis-trivial.
	fx := frontPos(cfg, t)
	bow := 2 * math.Sin(float64(by)/float64(cfg.BlocksY)*math.Pi)
	d := math.Abs(float64(bx) + 0.5 - fx - bow)
	for l := cfg.MaxLevel; l >= 1; l-- {
		if d <= cfg.FrontWidth*float64(cfg.MaxLevel-l+1) {
			return l
		}
	}
	return 0
}

// CellUpdates returns the fine-cell updates a block performs in one
// step at the given level: refining one level quadruples the cells
// (2x in each dimension).
func CellUpdates(cfg Config, level int) uint64 {
	cells := uint64(cfg.BlockCells) * uint64(cfg.BlockCells)
	return cells << (2 * uint(level))
}

// TotalCellUpdates computes the oracle: total fine-cell updates over
// the whole run, independent of decomposition.
func TotalCellUpdates(cfg Config) uint64 {
	var total uint64
	for t := 0; t < cfg.Steps; t++ {
		for by := 0; by < cfg.BlocksY; by++ {
			for bx := 0; bx < cfg.BlocksX; bx++ {
				total += CellUpdates(cfg, Level(cfg, bx, by, t))
			}
		}
	}
	return total
}

// Result summarizes one rank's run.
type Result struct {
	VP          int
	CellUpdates uint64
	MaxLevel    int
	Regrids     uint64
}

// OwnerOf maps a block to its rank: contiguous column-major runs, so
// each rank owns a spatially local tile and the moving front loads a
// few ranks at a time (the imbalance the regrid step must fix).
func OwnerOf(cfg Config, v, bx, by int) int {
	idx := bx*cfg.BlocksY + by
	return idx * v / (cfg.BlocksX * cfg.BlocksY)
}

// New returns the AMR program.
func New(cfg Config, results func(Result)) *ampi.Program {
	return &ampi.Program{
		Image: Image(),
		Main:  func(r *ampi.Rank) { runRank(cfg, r, results) },
	}
}

func runRank(cfg Config, r *ampi.Rank, results func(Result)) {
	v := r.Size()
	me := r.Rank()
	flop := r.World().Cluster.Cost.FlopTime

	// Collect owned blocks.
	type block struct{ bx, by int }
	var owned []block
	for by := 0; by < cfg.BlocksY; by++ {
		for bx := 0; bx < cfg.BlocksX; bx++ {
			if OwnerOf(cfg, v, bx, by) == me {
				owned = append(owned, block{bx, by})
			}
		}
	}
	// Handles held across the step loop: resolved once, re-resolved
	// automatically after each regrid migration.
	ctx := r.Ctx()
	stepVar := ctx.Var("step")
	regridCount := ctx.Var("regrid_count")
	ctx.Store("num_blocks_owned", uint64(len(owned)))

	var updates uint64
	maxLevel := 0
	for t := 0; t < cfg.Steps; t++ {
		stepVar.Store(uint64(t))

		// Flux exchange: one message to each neighbor rank owning an
		// adjacent block, sized by the finer side's boundary cells.
		type edge struct {
			peer  int
			bytes uint64
		}
		volume := map[int]uint64{}
		for _, b := range owned {
			lvl := Level(cfg, b.bx, b.by, t)
			for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				nx, ny := b.bx+d[0], b.by+d[1]
				if nx < 0 || nx >= cfg.BlocksX || ny < 0 || ny >= cfg.BlocksY {
					continue
				}
				peer := OwnerOf(cfg, v, nx, ny)
				if peer == me {
					continue
				}
				nl := Level(cfg, nx, ny, t)
				fine := lvl
				if nl > fine {
					fine = nl
				}
				volume[peer] += uint64(cfg.BlockCells) << uint(fine) * 8
			}
		}
		var edges []edge
		for peer, bytes := range volume {
			edges = append(edges, edge{peer, bytes})
		}
		// Deterministic order.
		for i := 0; i < len(edges); i++ {
			for j := i + 1; j < len(edges); j++ {
				if edges[j].peer < edges[i].peer {
					edges[i], edges[j] = edges[j], edges[i]
				}
			}
		}
		reqs := make([]*ampi.Request, len(edges))
		for i, e := range edges {
			reqs[i] = r.Irecv(e.peer, t, nil)
		}
		for _, e := range edges {
			r.Send(e.peer, t, nil, e.bytes)
		}
		r.Waitall(reqs)

		// Advance owned blocks at their current refinement.
		var stepUpdates uint64
		for _, b := range owned {
			lvl := Level(cfg, b.bx, b.by, t)
			if lvl > maxLevel {
				maxLevel = lvl
			}
			stepUpdates += CellUpdates(cfg, lvl)
		}
		updates += stepUpdates
		r.Compute(sim.Time(stepUpdates) * sim.Time(cfg.FlopsPerCell) * flop)
		stepVar.Charge(stepUpdates / 8)

		if cfg.RegridEvery > 0 && (t+1)%cfg.RegridEvery == 0 && t+1 < cfg.Steps {
			regridCount.Store(regridCount.Load() + 1)
			r.Migrate()
		}
	}
	ctx.Store("max_level_seen", uint64(maxLevel))
	r.Allreduce([]float64{float64(updates)}, ampi.OpSum)
	if results != nil {
		results(Result{
			VP:          me,
			CellUpdates: updates,
			MaxLevel:    maxLevel,
			Regrids:     regridCount.Load(),
		})
	}
}
