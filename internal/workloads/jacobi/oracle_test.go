package jacobi

// SerialSolve runs the same relaxation on a single global grid, for the
// tests in package jacobi_test to compare the distributed solve against.
// It returns the field and final residual.
func SerialSolve(cfg Config) ([]float64, float64) {
	b := newBlock(cfg.NX, cfg.NY, cfg.NZ)
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
