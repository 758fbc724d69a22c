package ampi

import (
	"fmt"

	"provirt/internal/sim"
	"provirt/internal/trace"
)

// Reconfigure is the benign "error" a world returns after a graceful
// drain: a membership change was scheduled, the runtime forced a
// checkpoint at the next collective consistency point, and the job
// stopped so a supervisor can rebuild it on the new cluster shape from
// that snapshot. Unlike *NodeFailure, no work is lost — the snapshot
// is taken at the drain instant, so rework is zero.
type Reconfigure struct {
	// At is when the drain checkpoint completed and the world stopped.
	At sim.Time
}

// Error implements error.
func (e *Reconfigure) Error() string {
	return fmt.Sprintf("ampi: world drained for reconfiguration at %v; restart from the drain checkpoint", e.At)
}

// ScheduleReconfigure arms a graceful drain at virtual time at: from
// that instant, the next CheckpointIfDue collective takes a snapshot
// regardless of the policy interval and then stops the world with a
// *Reconfigure error instead of resuming the ranks. Supervisors use it
// for planned membership changes — spot-instance eviction notices and
// expansion points — where draining through a checkpoint beats
// crashing: the restart resumes from the drain instant with zero
// rework.
//
// The world must have a checkpoint policy (CheckpointIfDue is the
// drain's consistency point). Pairing with ScheduleNodeFailure models
// a notice window: whichever fires first wins, so a notice too short
// to reach the next consistency point degrades naturally into a crash.
func (w *World) ScheduleReconfigure(at sim.Time) error {
	if p := w.Cfg.Checkpoint; p == nil || p.Interval <= 0 {
		return fmt.Errorf("ampi: ScheduleReconfigure needs a checkpoint policy to drain through")
	}
	if at < 0 {
		return fmt.Errorf("ampi: ScheduleReconfigure at negative time %v", at)
	}
	w.Cluster.Engine.At(at, func() { w.reconfigPending = true })
	return nil
}

// drainWorld finishes a forced drain checkpoint: it stops the world at
// the snapshot completion instant with a *Reconfigure error, emitting
// the drain span. Runs as the engine callback at ck.Taken.
func (w *World) drainWorld(ck *Checkpoint, started sim.Time) {
	if w.tracer != nil {
		w.tracer.Emit(trace.Event{Time: started, Dur: ck.Taken - started, Kind: trace.KindDrain,
			PE: -1, VP: -1, Peer: -1, Aux: int32(ck.Target), Bytes: ck.DeltaBytes})
	}
	w.fail(&Reconfigure{At: ck.Taken})
}
