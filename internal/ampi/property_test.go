package ampi_test

import (
	"math"
	"testing"
	"testing/quick"

	"provirt/internal/ampi"
	"provirt/internal/core"
	"provirt/internal/machine"
	"provirt/internal/workloads/synth"
)

// TestCollectivesMatchSequentialOracle: for random rank counts,
// machine shapes, and contributions, every reduction collective
// matches a sequential computation of the same combination.
func TestCollectivesMatchSequentialOracle(t *testing.T) {
	f := func(raw []int16, shape uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 16 {
			raw = raw[:16]
		}
		v := len(raw)
		pes := int(shape%4) + 1
		contrib := make([]float64, v)
		for i, x := range raw {
			contrib[i] = float64(x)
		}

		// Sequential oracles.
		var oracleSum, oracleMax float64
		oracleMax = math.Inf(-1)
		for _, x := range contrib {
			oracleSum += x
			oracleMax = math.Max(oracleMax, x)
		}

		sums := make([]float64, v)
		maxes := make([]float64, v)
		prog := &ampi.Program{
			Image: synth.EmptyImage(),
			Main: func(r *ampi.Rank) {
				me := contrib[r.Rank()]
				sums[r.Rank()] = r.Allreduce([]float64{me}, ampi.OpSum)[0]
				maxes[r.Rank()] = r.Allreduce([]float64{me}, ampi.OpMax)[0]
			},
		}
		w, err := ampi.NewWorld(ampi.Config{
			Machine:   machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: pes},
			VPs:       v,
			Privatize: core.KindPIEglobals,
		}, prog)
		if err != nil {
			return false
		}
		if err := w.Run(); err != nil {
			return false
		}
		const eps = 1e-9
		for vp := 0; vp < v; vp++ {
			if math.Abs(sums[vp]-oracleSum) > eps*math.Max(1, math.Abs(oracleSum)) {
				return false
			}
			if maxes[vp] != oracleMax {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
