package adcirc

import "testing"

// wet reports whether cell (x, y) is wet at step t: the disk test
// WetCount evaluates a row at a time.
func wet(cfg Config, x, y, t int) bool {
	sx, sy := storm(cfg, t)
	dx, dy := float64(x)-sx, float64(y)-sy
	r := Radius(cfg, t)
	return dx*dx+dy*dy <= r*r
}

// TestWetCountMatchesCellOracle checks the analytic per-row span count
// against testing every cell of the domain at every step.
func TestWetCountMatchesCellOracle(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Width, cfg.Height, cfg.Steps = 96, 128, 12
	for step := 0; step < cfg.Steps; step++ {
		for y := 0; y < cfg.Height; y++ {
			want := 0
			for x := 0; x < cfg.Width; x++ {
				if wet(cfg, x, y, step) {
					want++
				}
			}
			if got := WetCount(cfg, y, y+1, step); got != want {
				t.Fatalf("step %d row %d: WetCount %d, cell oracle %d", step, y, got, want)
			}
		}
	}
}
