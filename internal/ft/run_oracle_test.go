package ft

import (
	"errors"
	"fmt"

	"provirt/internal/ampi"
)

// oracleRun is ft.Run's supervisor loop as it stood before Run became
// the crash-only case of the elastic loop, kept as the reference the
// merged loop is held to (TestRunMatchesOracle). It knows crashes only —
// no drains, no membership spans — and returns a lost snapshot as an
// error where the merged loop cold-restarts. It is verbatim but for one
// fix both loops share — a crash restarts from the newest snapshot that
// was complete when the node failed, not from one still being written —
// and for its shrink and expand arms, which went with those recovery
// modes: a crash recovers onto a spare.
func oracleRun(job Job) (*Report, error) {
	if job.Program == nil {
		return nil, errors.New("ft: job needs a program factory")
	}
	maxRestarts := job.MaxRestarts
	if maxRestarts <= 0 {
		maxRestarts = DefaultMaxRestarts
	}
	plan := job.Plan
	rep := &Report{}
	var lastCk *ampi.Checkpoint
	var pending *RecoveryRecord
	for restarts := 0; ; restarts++ {
		var w *ampi.World
		var err error
		if lastCk == nil {
			w, err = ampi.NewWorld(job.Config, job.Program())
		} else {
			w, err = ampi.NewWorldFromCheckpoint(job.Config, job.Program(), lastCk)
		}
		if err != nil {
			return rep, err
		}
		if err := plan.Arm(w); err != nil {
			return rep, err
		}
		runErr := w.Run()
		rep.Attempts++
		rep.Checkpoints += w.Checkpoints
		if pending != nil {
			pending.Downtime = w.RestoreDone
			if pending.Downtime == 0 {
				pending.Downtime = w.SetupDone
			}
			pending.RestoredBytes = w.RestoredBytes
			metrics.restoredBytes.Add(pending.RestoredBytes)
			pending = nil
		}
		if runErr == nil {
			rep.TotalTime += w.Time()
			rep.World = w
			return rep, nil
		}
		var nf *ampi.NodeFailure
		if !errors.As(runErr, &nf) {
			// Not a node failure: application or runtime bug, nothing a
			// restart would fix.
			rep.TotalTime += w.Time()
			return rep, runErr
		}
		// The crashed attempt consumed virtual time up to the crash,
		// even when the PE clocks lag it (a crash during startup): that
		// is the time its faults must be shifted by and the time the
		// attempt charges to the job.
		elapsed := w.Time()
		if nf.At > elapsed {
			elapsed = nf.At
		}
		rep.TotalTime += elapsed
		if restarts >= maxRestarts {
			return rep, fmt.Errorf("ft: job still failing after %d restart(s): %w", restarts, runErr)
		}
		if ck := w.CheckpointDurableBy(nf.At); ck != nil {
			lastCk = ck
		}
		rec := RecoveryRecord{Attempt: rep.Attempts, Node: nf.Node, CrashAt: nf.At}
		if lastCk != nil {
			rec.Rework = nf.At - lastCk.Taken
			if rec.Rework < 0 {
				rec.Rework = 0
			}
		} else {
			// No snapshot yet: the whole attempt is rework.
			rec.Rework = nf.At
		}
		plan = plan.Shift(elapsed)
		if lastCk != nil {
			// Tell the restore which node's in-memory snapshot copies
			// died with the crash (buddy checkpoints read the surviving
			// copy; filesystem snapshots ignore this).
			lastCk.LostNode = nf.Node
		}
		metrics.recoveries.Inc()
		metrics.reworkNS.Add(uint64(rec.Rework))
		rep.Recoveries = append(rep.Recoveries, rec)
		pending = &rep.Recoveries[len(rep.Recoveries)-1]
	}
}

// OracleRun hands the reference loop to the external test package.
var OracleRun = oracleRun
