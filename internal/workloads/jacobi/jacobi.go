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

// block is one rank's subdomain with one ghost layer per face, and its
// transfer plan: the faces that have a neighbor, in face order, and the
// receive requests of the exchange in flight. The grids and every face's
// planes are carved from one slab.
type block struct {
	nx, ny, nz int // interior sizes
	u, un      []float64
	faces      []halo
	reqs       []*ampi.Request
	slab       []float64
}

// blocks recycles rank storage across worlds: a block, its slab and its
// face table. Jacobi's arrays are the host side of the benchmark, not
// part of any modelled quantity, and the evaluation's worlds size them
// alike, so a rank takes the storage an earlier rank released instead of
// allocating its grids afresh. The pool is shared by every world in the
// process, whichever sweep or serve worker runs it.
var blocks sync.Pool // of *block

// newBlock lays out an nx x ny x nz block whose neighbor across each face
// is given by neighbor (-1: none), every cell zero. The block's geometry
// and the rank's neighbors are fixed for the run, and the planes are
// addressed by offset because sweep swaps u and un.
func newBlock(nx, ny, nz int, neighbor func(dx, dy, dz int) int) *block {
	b, _ := blocks.Get().(*block)
	if b == nil {
		b = &block{faces: make([]halo, 0, 6), reqs: make([]*ampi.Request, 0, 6)}
	}
	b.nx, b.ny, b.nz = nx, ny, nz
	n := [3]int{nx, ny, nz}
	stride := [3]int{(ny + 2) * (nz + 2), nz + 2, 1}
	// The two axes spanning a face normal to each axis, in storage order.
	span := [3][2]int{{1, 2}, {0, 2}, {0, 1}}
	b.faces = b.faces[:0]
	grid := (nx + 2) * (ny + 2) * (nz + 2)
	cells := 2 * grid
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
			b.faces = append(b.faces, halo{
				peer: peer, face: 2*axis + side,
				n1: n[a1], s1: stride[a1], n2: n[a2], s2: stride[a2],
				send: send * stride[axis], ghost: ghost * stride[axis],
			})
			cells += 2 * n[a1] * n[a2]
		}
	}
	// A recycled slab too short for this block is dropped. A new one
	// has room for all six faces' planes, so that any block of the same
	// sides can reuse it, whichever faces it has.
	if cap(b.slab) < cells {
		b.slab = make([]float64, cells, 2*grid+4*(ny*nz+nx*nz+nx*ny))
	} else {
		b.slab = b.slab[:cells]
		clear(b.slab)
	}
	rest := b.slab
	carve := func(n int) []float64 {
		s := rest[:n:n]
		rest = rest[n:]
		return s
	}
	b.u, b.un = carve(grid), carve(grid)
	for i := range b.faces {
		h := &b.faces[i]
		h.out, h.in = carve(h.n1*h.n2), carve(h.n1*h.n2)
	}
	b.reqs = b.reqs[:len(b.faces)]
	return b
}

// release returns the block to the pool. Nothing may read or write it
// afterwards, and no receive may still target it.
func (b *block) release() {
	clear(b.reqs) // each request belongs to its world's free list
	blocks.Put(b)
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

	neighbor := func(dx, dy, dz int) int {
		jx, jy, jz := ix+dx, iy+dy, iz+dz
		if jx < 0 || jx >= px || jy < 0 || jy >= py || jz < 0 || jz >= pz {
			return -1
		}
		return (jz*py+jy)*px + jx
	}
	x0, x1 := ranges(cfg.NX, px, ix)
	y0, y1 := ranges(cfg.NY, py, iy)
	z0, z1 := ranges(cfg.NZ, pz, iz)
	b := newBlock(x1-x0, y1-y0, z1-z0, neighbor)

	// Dirichlet condition: u = 1 on the global x = 0 face, which is
	// plane 0 of both grids.
	if ix == 0 {
		b.pinFace()
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

	var resid float64
	for it := 0; it < cfg.Iters; it++ {
		exchangeHalos(r, b, it)
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

	// Every receive has been waited on, so nothing writes the slab once
	// the sum is taken.
	sum := b.sum()
	b.release()
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
// plane sent and the ghost plane filled, each with its buffer in the
// block's slab. Rank.Send copies its payload and Irecv copies into in,
// so the two buffers serve every iteration of the run.
type halo struct {
	peer, face int
	// The face holds n1 x n2 cells at strides s1, s2 in the block's
	// storage; send and ghost are the offsets of the two planes.
	n1, s1, n2, s2 int
	send, ghost    int
	out, in        []float64
}

// gather packs the face's send plane of u into out, one row of n2 cells
// at stride s2 at a time.
func (h *halo) gather(u []float64) []float64 {
	for i := 0; i < h.n1; i++ {
		row := u[h.send+(i+1)*h.s1+h.s2:]
		dst := h.out[i*h.n2 : (i+1)*h.n2]
		for j := range dst {
			dst[j] = row[j*h.s2]
		}
	}
	return h.out
}

// scatter unpacks a received plane into the face's ghost plane of u.
func (h *halo) scatter(u, in []float64) {
	for i := 0; i < h.n1; i++ {
		row := u[h.ghost+(i+1)*h.s1+h.s2:]
		src := in[i*h.n2 : (i+1)*h.n2]
		for j, x := range src {
			row[j*h.s2] = x
		}
	}
}

// exchangeHalos swaps boundary planes with up to six neighbors using
// nonblocking receives to avoid deadlock.
func exchangeHalos(r *ampi.Rank, b *block, it int) {
	for i := range b.faces {
		h := &b.faces[i]
		b.reqs[i] = r.Irecv(h.peer, haloTag(it, h.face^1), h.in)
	}
	for i := range b.faces {
		h := &b.faces[i]
		r.Send(h.peer, haloTag(it, h.face), h.gather(b.u), 0)
	}
	for i := range b.faces {
		h := &b.faces[i]
		in := r.Wait(b.reqs[i])
		if len(in) != len(h.out) {
			panic(fmt.Sprintf("jacobi: rank %d halo from %d has %d cells, want %d", r.Rank(), h.peer, len(in), len(h.out)))
		}
		h.scatter(b.u, in)
	}
}

// pinFace sets plane 0 of both grids to 1.
func (b *block) pinFace() {
	face := (b.ny + 2) * (b.nz + 2)
	for c := range face {
		b.u[c], b.un[c] = 1, 1
	}
}

// sweep performs one damped-Jacobi relaxation over the interior and
// returns the local residual norm contribution. Each (i, j) row of the
// interior is read through the five rows around it; the stencil sum,
// its order and the residual's order are the index arithmetic's, so
// every bit of the result is too.
func (b *block) sweep(omega float64) float64 {
	sj := b.nz + 2
	si := (b.ny + 2) * sj
	keep := 1 - omega
	var resid float64
	for i := 1; i <= b.nx; i++ {
		for j := 1; j <= b.ny; j++ {
			// The interior of row (i, j), and the same cells shifted one
			// step down and up each axis.
			c := i*si + j*sj + 1
			row := b.u[c : c+b.nz]
			n := len(row)
			xm, xp := b.u[c-si:][:n], b.u[c+si:][:n]
			ym, yp := b.u[c-sj:][:n], b.u[c+sj:][:n]
			zm, zp := b.u[c-1:][:n], b.u[c+1:][:n]
			out := b.un[c:][:n]
			for k, x := range row {
				avg := (xm[k] + xp[k] + ym[k] + yp[k] + zm[k] + zp[k]) / 6
				next := keep*x + omega*avg
				d := next - x
				resid += d * d
				out[k] = next
			}
		}
	}
	// After the swap u's ghost planes are two exchanges old. The next
	// exchange refills each one that has a neighbor before the next sweep
	// reads it; the others are the global boundary, which nothing writes
	// and both grids hold alike (0, or 1 on the pinned Dirichlet plane).
	b.u, b.un = b.un, b.u
	return math.Sqrt(resid)
}

// sum adds the interior cells of u in (i, j, k) order.
func (b *block) sum() float64 {
	sj := b.nz + 2
	si := (b.ny + 2) * sj
	var s float64
	for i := 1; i <= b.nx; i++ {
		for j := 1; j <= b.ny; j++ {
			c := i*si + j*sj
			for _, x := range b.u[c+1 : c+1+b.nz] {
				s += x
			}
		}
	}
	return s
}
