// Package jacobi implements the paper's Jacobi-3D benchmark: a 7-point
// stencil relaxation on a 3-D grid, block-decomposed across virtual
// ranks with halo exchange each iteration. Every variable referenced in
// the innermost loop (relaxation coefficients, grid spacings) is a
// privatized global, which is what makes the benchmark a per-access
// overhead probe (Fig. 7). The standalone binary is ~100 source lines
// with a 3 MB code segment (§4.4).
package jacobi

import (
	"fmt"
	"math"
	"sync"

	"provirt/internal/ampi"
	"provirt/internal/elf"
	"provirt/internal/sim"
)

// Config sizes one Jacobi-3D run.
type Config struct {
	// NX, NY, NZ are the global grid dimensions (interior points).
	NX, NY, NZ int
	// Iters is the number of relaxation sweeps.
	Iters int
	// AccessesPerCell is the number of privatized-global touches per
	// cell per sweep charged to the access-cost model (the inner loop
	// reads omega, three spacings, and writes through coefficient
	// pointers).
	AccessesPerCell uint64
	// FlopsPerCell scales the per-cell compute charge.
	FlopsPerCell int
}

// DefaultConfig returns a small deterministic problem.
func DefaultConfig() Config {
	return Config{NX: 24, NY: 24, NZ: 24, Iters: 10, AccessesPerCell: 6, FlopsPerCell: 8}
}

// Image returns the Jacobi-3D program image: a handful of tagged
// mutable globals used in the innermost loop, main/sweep/exchange
// functions, and a 3 MB code segment. It is built once per process and
// shared by every world that loads it.
func Image() *elf.Image { return image() }

var image = sync.OnceValue(func() *elf.Image {
	return elf.NewBuilder("jacobi3d").
		Language("c").
		TaggedGlobal("omega", math.Float64bits(0.8)).
		TaggedGlobal("hx", math.Float64bits(1.0)).
		TaggedGlobal("hy", math.Float64bits(1.0)).
		TaggedGlobal("hz", math.Float64bits(1.0)).
		TaggedGlobal("iter_count", 0).
		TaggedStatic("sweep_calls", 0).
		Const("max_iters", 1<<20).
		Func("main", 4096).
		Func("sweep", 8192).
		Func("exchange_halos", 4096).
		Func("residual", 2048).
		CodeBulk(3 << 20).
		DataBulk(128 << 10).
		MustBuild()
})

// Decompose3D factors v ranks into a (px, py, pz) grid with sides as
// equal as possible (px >= py >= pz).
func Decompose3D(v int) (px, py, pz int) {
	px, py, pz = v, 1, 1
	best := func(a, b, c int) int { // surface-area-ish objective: minimize max side
		m := a
		if b > m {
			m = b
		}
		if c > m {
			m = c
		}
		return m
	}
	for a := 1; a*a*a <= v; a++ {
		if v%a != 0 {
			continue
		}
		rem := v / a
		for b := a; b*b <= rem; b++ {
			if rem%b != 0 {
				continue
			}
			c := rem / b
			if best(c, b, a) < best(px, py, pz) {
				px, py, pz = c, b, a
			}
		}
	}
	return px, py, pz
}

// Result summarizes one rank's run.
type Result struct {
	VP        int
	Residual  float64
	Sweeps    uint64
	LocalSum  float64
	Accesses  uint64
	ElapsedNS int64
}

// block is one rank's subdomain with one ghost layer per face.
type block struct {
	nx, ny, nz int // interior sizes
	u, un      []float64
}

func newBlock(nx, ny, nz int) *block {
	b := &block{nx: nx, ny: ny, nz: nz}
	n := (nx + 2) * (ny + 2) * (nz + 2)
	b.u = make([]float64, n)
	b.un = make([]float64, n)
	return b
}

func (b *block) idx(i, j, k int) int {
	return (i*(b.ny+2)+j)*(b.nz+2) + k
}

// ranges splits n points across p parts; part i gets [lo, hi).
func ranges(n, p, i int) (lo, hi int) {
	lo = i * n / p
	hi = (i + 1) * n / p
	return lo, hi
}

// New returns the Jacobi-3D program. results receives one Result per
// rank at completion.
func New(cfg Config, results func(Result)) *ampi.Program {
	if cfg.AccessesPerCell == 0 {
		cfg.AccessesPerCell = 6
	}
	if cfg.FlopsPerCell == 0 {
		cfg.FlopsPerCell = 8
	}
	return &ampi.Program{
		Image: Image(),
		Main:  func(r *ampi.Rank) { runRank(cfg, r, results) },
	}
}

func runRank(cfg Config, r *ampi.Rank, results func(Result)) {
	v := r.Size()
	px, py, pz := Decompose3D(v)
	me := r.Rank()
	ix := me % px
	iy := (me / px) % py
	iz := me / (px * py)

	x0, x1 := ranges(cfg.NX, px, ix)
	y0, y1 := ranges(cfg.NY, py, iy)
	z0, z1 := ranges(cfg.NZ, pz, iz)
	b := newBlock(x1-x0, y1-y0, z1-z0)

	// Dirichlet condition: u = 1 on the global x = 0 face.
	if ix == 0 {
		for j := 0; j <= b.ny+1; j++ {
			for k := 0; k <= b.nz+1; k++ {
				b.u[b.idx(0, j, k)] = 1
				b.un[b.idx(0, j, k)] = 1
			}
		}
	}

	neighbor := func(dx, dy, dz int) int {
		jx, jy, jz := ix+dx, iy+dy, iz+dz
		if jx < 0 || jx >= px || jy < 0 || jy >= py || jz < 0 || jz >= pz {
			return -1
		}
		return (jz*py+jy)*px + jx
	}

	// Resolve each privatized global once and hold the handle across
	// iterations; handles survive migration (the cached resolution is
	// epoch-invalidated), so the inner loop never re-runs the symbol
	// lookup.
	ctx := r.Ctx()
	omegaVar := ctx.Var("omega")
	iterCount := ctx.Var("iter_count")
	sweepCalls := ctx.Var("sweep_calls")
	omega := math.Float64frombits(omegaVar.Load())
	cells := uint64(b.nx) * uint64(b.ny) * uint64(b.nz)
	flop := r.World().Cluster.Cost.FlopTime
	start := r.Wtime()

	plan := newHaloPlan(b, neighbor)
	var resid float64
	for it := 0; it < cfg.Iters; it++ {
		exchangeHalos(r, b, plan, it)
		// The sweep's inner loop touches privatized globals per cell;
		// charge those accesses plus the floating-point work.
		omegaVar.Charge(cells * cfg.AccessesPerCell)
		r.Compute(sim.Time(cells) * sim.Time(cfg.FlopsPerCell) * flop)
		resid = b.sweep(omega)
		iterCount.Store(uint64(it + 1))
		sweepCalls.Store(sweepCalls.Load() + 1)
		// Iteration boundaries are the solver's consistency points:
		// snapshot here when a checkpoint policy is armed (free when
		// none is — the call returns immediately without a collective),
		// which also makes the workload drainable for elastic runs.
		r.CheckpointIfDue()
	}
	global := r.Allreduce([]float64{resid * resid}, ampi.OpSum)

	var sum float64
	for i := 1; i <= b.nx; i++ {
		for j := 1; j <= b.ny; j++ {
			for k := 1; k <= b.nz; k++ {
				sum += b.u[b.idx(i, j, k)]
			}
		}
	}
	if results != nil {
		results(Result{
			VP:        me,
			Residual:  math.Sqrt(global[0]),
			Sweeps:    sweepCalls.Load(),
			LocalSum:  sum,
			Accesses:  r.Ctx().Accesses(),
			ElapsedNS: int64(r.Wtime() - start),
		})
	}
}

// haloTag tags iteration it's message for a face. Faces are numbered
// 2*axis + side (Xlo, Xhi, Ylo, Yhi, Zlo, Zhi), so face^1 is the
// opposite face: the one a neighbor's matching message is tagged with.
func haloTag(it, face int) int { return it*8 + face }

// halo is one face's transfer with the neighbor across it: the interior
// plane sent, the ghost plane filled, the gather scratch and the receive
// buffer (Rank.Send copies its payload and Irecv copies into in, so one
// pair of buffers per face serves every iteration).
type halo struct {
	peer, face int
	// The face holds n1 x n2 cells at strides s1, s2 in the block's
	// storage; send and ghost are the offsets of the two planes.
	n1, s1, n2, s2 int
	send, ghost    int
	buf, in        []float64
}

// haloPlan is a rank's transfer plan: its faces that have a neighbor, in
// face order, and the receive requests of the exchange in flight.
type haloPlan struct {
	faces []halo
	reqs  []*ampi.Request
}

// newHaloPlan builds the plan once per rank. The block's geometry and the
// rank's neighbors are fixed for the run, and the planes are addressed by
// offset because sweep swaps u and un.
func newHaloPlan(b *block, neighbor func(dx, dy, dz int) int) *haloPlan {
	n := [3]int{b.nx, b.ny, b.nz}
	stride := [3]int{(b.ny + 2) * (b.nz + 2), b.nz + 2, 1}
	// The two axes spanning a face normal to each axis, in storage order.
	span := [3][2]int{{1, 2}, {0, 2}, {0, 1}}
	p := &haloPlan{}
	for axis := 0; axis < 3; axis++ {
		a1, a2 := span[axis][0], span[axis][1]
		for side := 0; side < 2; side++ {
			var d [3]int
			d[axis] = 2*side - 1
			peer := neighbor(d[0], d[1], d[2])
			if peer < 0 {
				continue
			}
			// The low side sends plane 1 into ghost 0; the high side
			// sends plane n into ghost n+1.
			send, ghost := 1, 0
			if side == 1 {
				send, ghost = n[axis], n[axis]+1
			}
			p.faces = append(p.faces, halo{
				peer: peer, face: 2*axis + side,
				n1: n[a1], s1: stride[a1], n2: n[a2], s2: stride[a2],
				send: send * stride[axis], ghost: ghost * stride[axis],
				buf: make([]float64, n[a1]*n[a2]),
				in:  make([]float64, n[a1]*n[a2]),
			})
		}
	}
	p.reqs = make([]*ampi.Request, len(p.faces))
	return p
}

// gather packs the face's send plane of u into its scratch.
func (h *halo) gather(u []float64) []float64 {
	p := 0
	for i := 1; i <= h.n1; i++ {
		row := h.send + i*h.s1
		for j := 1; j <= h.n2; j++ {
			h.buf[p] = u[row+j*h.s2]
			p++
		}
	}
	return h.buf
}

// scatter unpacks a received plane into the face's ghost plane of u.
func (h *halo) scatter(u, in []float64) {
	p := 0
	for i := 1; i <= h.n1; i++ {
		row := h.ghost + i*h.s1
		for j := 1; j <= h.n2; j++ {
			u[row+j*h.s2] = in[p]
			p++
		}
	}
}

// exchangeHalos swaps boundary planes with up to six neighbors using
// nonblocking receives to avoid deadlock.
func exchangeHalos(r *ampi.Rank, b *block, plan *haloPlan, it int) {
	for i := range plan.faces {
		h := &plan.faces[i]
		plan.reqs[i] = r.Irecv(h.peer, haloTag(it, h.face^1), h.in)
	}
	for i := range plan.faces {
		h := &plan.faces[i]
		r.Send(h.peer, haloTag(it, h.face), h.gather(b.u), 0)
	}
	for i := range plan.faces {
		h := &plan.faces[i]
		in := r.Wait(plan.reqs[i])
		if len(in) != len(h.buf) {
			panic(fmt.Sprintf("jacobi: rank %d halo from %d has %d cells, want %d", r.Rank(), h.peer, len(in), len(h.buf)))
		}
		h.scatter(b.u, in)
	}
}

// sweep performs one damped-Jacobi relaxation over the interior and
// returns the local residual norm contribution.
func (b *block) sweep(omega float64) float64 {
	var resid float64
	for i := 1; i <= b.nx; i++ {
		for j := 1; j <= b.ny; j++ {
			for k := 1; k <= b.nz; k++ {
				c := b.idx(i, j, k)
				avg := (b.u[b.idx(i-1, j, k)] + b.u[b.idx(i+1, j, k)] +
					b.u[b.idx(i, j-1, k)] + b.u[b.idx(i, j+1, k)] +
					b.u[b.idx(i, j, k-1)] + b.u[b.idx(i, j, k+1)]) / 6
				next := (1-omega)*b.u[c] + omega*avg
				d := next - b.u[c]
				resid += d * d
				b.un[c] = next
			}
		}
	}
	b.u, b.un = b.un, b.u
	// Ghost/boundary planes of un are stale after the swap for the
	// global Dirichlet face; re-pin handled by owner in next exchange.
	return math.Sqrt(resid)
}
