package machine

import (
	"fmt"
	"time"

	"provirt/internal/sim"
)

// NodeSecondsOf integrates a membership timeline over [0, horizon): the
// sum over nodes of the virtual time each spent as a member — the cost
// axis of an elastic run, which the elastic supervisor accumulates while
// its job restarts across cluster instances (node-hours at cloud billing
// granularity are node-seconds scaled by 3600s). spans[i] is one node's
// (joined, retired) pair; retired < 0 means live through the horizon.
func NodeSecondsOf(spans [][2]sim.Time, horizon sim.Time) sim.Time {
	var total sim.Time
	for _, s := range spans {
		end := horizon
		if s[1] >= 0 && s[1] < end {
			end = s[1]
		}
		if end > s[0] {
			total += end - s[0]
		}
	}
	return total
}

// FormatNodeHours renders a node-seconds integral as a fixed-precision
// node-hour string for experiment tables.
func FormatNodeHours(nodeSeconds sim.Time) string {
	return fmt.Sprintf("%.6f", time.Duration(nodeSeconds).Hours())
}
