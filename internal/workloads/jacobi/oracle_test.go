package jacobi

import (
	"encoding/binary"
	"math"
	"testing"
)

// oracleBlock is the storage and the kernels the slab and the row-slice
// loops replaced: two separately allocated grids, addressed cell by cell
// through idx. FuzzJacobiSweep holds the block's kernels to it bit for
// bit, and SerialSolve runs on it.
type oracleBlock struct {
	nx, ny, nz int
	u, un      []float64
}

func newOracleBlock(nx, ny, nz int) *oracleBlock {
	n := (nx + 2) * (ny + 2) * (nz + 2)
	return &oracleBlock{nx: nx, ny: ny, nz: nz, u: make([]float64, n), un: make([]float64, n)}
}

func (b *oracleBlock) idx(i, j, k int) int {
	return (i*(b.ny+2)+j)*(b.nz+2) + k
}

func (b *oracleBlock) sweep(omega float64) float64 {
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
	return math.Sqrt(resid)
}

// oracleHalo is one face of the old per-face plan, with its own gather
// scratch.
type oracleHalo struct {
	n1, s1, n2, s2 int
	send, ghost    int
	buf            []float64
}

// oracleFaces builds all six faces of b in face order, as the old plan
// did for a rank with a neighbor across every face.
func oracleFaces(b *oracleBlock) []oracleHalo {
	n := [3]int{b.nx, b.ny, b.nz}
	stride := [3]int{(b.ny + 2) * (b.nz + 2), b.nz + 2, 1}
	span := [3][2]int{{1, 2}, {0, 2}, {0, 1}}
	var faces []oracleHalo
	for axis := 0; axis < 3; axis++ {
		a1, a2 := span[axis][0], span[axis][1]
		for side := 0; side < 2; side++ {
			send, ghost := 1, 0
			if side == 1 {
				send, ghost = n[axis], n[axis]+1
			}
			faces = append(faces, oracleHalo{
				n1: n[a1], s1: stride[a1], n2: n[a2], s2: stride[a2],
				send: send * stride[axis], ghost: ghost * stride[axis],
				buf: make([]float64, n[a1]*n[a2]),
			})
		}
	}
	return faces
}

func (h *oracleHalo) gather(u []float64) []float64 {
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

func (h *oracleHalo) scatter(u, in []float64) {
	p := 0
	for i := 1; i <= h.n1; i++ {
		row := h.ghost + i*h.s1
		for j := 1; j <= h.n2; j++ {
			u[row+j*h.s2] = in[p]
			p++
		}
	}
}

// SerialSolve runs the same relaxation on a single global grid, for the
// tests in package jacobi_test to compare the distributed solve against.
// It returns the field and final residual.
func SerialSolve(cfg Config) ([]float64, float64) {
	b := newOracleBlock(cfg.NX, cfg.NY, cfg.NZ)
	for j := 0; j <= b.ny+1; j++ {
		for k := 0; k <= b.nz+1; k++ {
			b.u[b.idx(0, j, k)] = 1
			b.un[b.idx(0, j, k)] = 1
		}
	}
	var resid float64
	for it := 0; it < cfg.Iters; it++ {
		resid = b.sweep(0.8)
	}
	out := make([]float64, 0, cfg.NX*cfg.NY*cfg.NZ)
	for i := 1; i <= b.nx; i++ {
		for j := 1; j <= b.ny; j++ {
			for k := 1; k <= b.nz; k++ {
				out = append(out, b.u[b.idx(i, j, k)])
			}
		}
	}
	return out, resid
}

// cellSource deals float64 bit patterns from the fuzzer's bytes, eight
// at a time, cycling; no bytes deal zeros.
type cellSource struct {
	data []byte
	at   int
}

func (s *cellSource) next() float64 {
	if len(s.data) == 0 {
		return 0
	}
	var w [8]byte
	for i := range w {
		w[i] = s.data[s.at%len(s.data)]
		s.at++
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(w[:]))
}

// sameBits reports the first index where got and want differ in any bit.
func sameBits(got, want []float64) (int, bool) {
	if len(got) != len(want) {
		return -1, false
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i, false
		}
	}
	return 0, true
}

// FuzzJacobiSweep drives a block with a neighbor across every face and
// the oracle through the same rounds: gather every face's send plane,
// scatter a plane of fuzzed cells into every ghost plane, sweep. Block
// sides run 1–9 per axis, cells (ghosts and both grids included) and
// received planes are arbitrary float64 bit patterns, omega lies in
// (0, 1], and up to four sweeps run. Every gathered plane, u and un
// after every scatter and sweep, and every residual must equal the
// oracle's bit for bit.
func FuzzJacobiSweep(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(4), uint64(0), uint8(4), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(0), uint8(0), uint8(0), uint64(1<<52), uint8(1), []byte{})
	f.Add(uint8(8), uint8(1), uint8(5), uint64(1<<53-1), uint8(3),
		binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 1), math.Float64bits(math.Copysign(0, -1))))
	f.Add(uint8(5), uint8(5), uint8(5), uint64(12345), uint8(2),
		binary.LittleEndian.AppendUint64(nil, math.Float64bits(-3.5)))
	f.Fuzz(func(t *testing.T, sx, sy, sz uint8, w uint64, sweeps uint8, data []byte) {
		nx, ny, nz := 1+int(sx%9), 1+int(sy%9), 1+int(sz%9)
		omega := float64(w%(1<<53)+1) / (1 << 53)
		rounds := int(sweeps % 5)
		src := &cellSource{data: data}

		b := newBlock(nx, ny, nz, func(dx, dy, dz int) int { return 0 })
		defer b.release()
		o := newOracleBlock(nx, ny, nz)
		for c := range o.u {
			o.u[c], o.un[c] = src.next(), src.next()
			b.u[c], b.un[c] = o.u[c], o.un[c]
		}
		of := oracleFaces(o)
		if len(b.faces) != len(of) {
			t.Fatalf("%d faces, oracle %d", len(b.faces), len(of))
		}
		check := func(when string) {
			t.Helper()
			if i, ok := sameBits(b.u, o.u); !ok {
				t.Fatalf("%s: u[%d] = %x, oracle %x", when, i, math.Float64bits(b.u[i]), math.Float64bits(o.u[i]))
			}
			if i, ok := sameBits(b.un, o.un); !ok {
				t.Fatalf("%s: un[%d] = %x, oracle %x", when, i, math.Float64bits(b.un[i]), math.Float64bits(o.un[i]))
			}
		}
		for r := 0; r <= rounds; r++ {
			for i := range b.faces {
				h, oh := &b.faces[i], &of[i]
				if i, ok := sameBits(h.gather(b.u), oh.gather(o.u)); !ok {
					t.Fatalf("round %d face %d: gathered plane differs at %d", r, h.face, i)
				}
				in := make([]float64, len(oh.buf))
				for c := range in {
					in[c] = src.next()
				}
				h.scatter(b.u, in)
				oh.scatter(o.u, in)
				check("after scatter")
			}
			if r == rounds {
				break
			}
			got, want := b.sweep(omega), o.sweep(omega)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("sweep %d: residual %x, oracle %x", r, math.Float64bits(got), math.Float64bits(want))
			}
			check("after sweep")
		}
	})
}
