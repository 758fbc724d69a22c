package ft

import (
	"math"

	"provirt/internal/sim"
)

// Checkpoint-interval policy: how often a job should snapshot given its
// checkpoint cost C and the machine's mean time between failures M.
// Too-frequent checkpoints waste time writing snapshots; too-rare ones
// waste time recomputing lost work after a failure. Daly's higher-order
// refinement of Young's first-order sqrt(2·C·M) gives the classic optimum.

// DalyInterval is Daly's higher-order estimate of the optimal interval
// between checkpoint starts:
//
//	τ = sqrt(2·C·M) · [1 + (1/3)·sqrt(C/(2M)) + (1/9)·(C/(2M))] − C
//
// for C < 2M; when checkpoints cost as much as the failure interval
// itself (C >= 2M) the model degenerates and Daly prescribes τ = M.
// Non-positive inputs return 0.
func DalyInterval(ckpt, mtbf sim.Time) sim.Time {
	if ckpt <= 0 || mtbf <= 0 {
		return 0
	}
	c, m := float64(ckpt), float64(mtbf)
	if c >= 2*m {
		return mtbf
	}
	x := c / (2 * m)
	return sim.Time(math.Sqrt(2*c*m)*(1+math.Sqrt(x)/3+x/9) - c)
}
