package ft

import (
	"errors"
	"fmt"

	"provirt/internal/ampi"
	"provirt/internal/lb"
	"provirt/internal/machine"
	"provirt/internal/sim"
)

// RecoveryMode selects what the supervisor does with a failed node;
// Spare is the only mode.
type RecoveryMode int

// Spare replaces the failed node with an identical spare: the job
// restarts on a same-shape machine.
const Spare RecoveryMode = 0

// DefaultMaxRestarts bounds recovery attempts when Job.MaxRestarts is
// unset.
const DefaultMaxRestarts = 8

// Job describes a supervised run: the configuration and program to
// execute and the fault plan to inject. A node crash that kills an
// attempt is recovered onto a spare.
type Job struct {
	// Config is the job configuration; set Config.Checkpoint so
	// CheckpointIfDue actually snapshots, or crashes lose all progress.
	Config ampi.Config
	// Program builds a fresh program for each attempt. Worlds cannot be
	// re-run, so the supervisor needs a factory rather than an instance;
	// the returned program's closures may share state across attempts
	// (e.g. a finals slice).
	Program func() *ampi.Program
	// Plan is the fault schedule, in absolute virtual time from the
	// original job start. The supervisor shifts it across restarts.
	Plan Plan
	// Recovery must be Spare (the zero value); Run refuses any other.
	Recovery RecoveryMode
	// MaxRestarts bounds recovery attempts; <= 0 means
	// DefaultMaxRestarts.
	MaxRestarts int
}

// RecoveryRecord describes one recovery the supervisor performed.
type RecoveryRecord struct {
	// Attempt is the 1-based attempt that crashed.
	Attempt int
	// Node is the node that failed, CrashAt the virtual time it died
	// (in the crashed attempt's clock).
	Node    int
	CrashAt sim.Time
	// Rework is the work the crash threw away: time from the snapshot
	// the restart used back to the crash (the full run time when no
	// snapshot existed yet).
	Rework sim.Time
	// Downtime is what the restart itself cost: the restarted attempt's
	// virtual time until its slowest rank was restored and running
	// (setup for a from-scratch restart).
	Downtime sim.Time
	// RestoredBytes is the snapshot volume the restart read back.
	RestoredBytes uint64
}

// Report summarizes a supervised run: the part of the outcome a
// crash-only job and an elastic one share.
type Report struct {
	// World is the attempt that ran to completion.
	World *ampi.World
	// Attempts counts worlds started (1 = no failures, no churn).
	Attempts int
	// Recoveries has one record per unplanned crash the supervisor
	// recovered from.
	Recoveries []RecoveryRecord
	// TotalTime sums virtual time across all attempts — the job's
	// effective time-to-solution including drains, lost work and
	// restarts. It is the supervisor's one clock: faults, churn and
	// every recorded instant are placed on it.
	TotalTime sim.Time
	// Checkpoints counts snapshots taken across all attempts (drains
	// included).
	Checkpoints int
}

// MeanRecovery is the mean of Rework+Downtime over recoveries (0 if
// none) — the average price of one crash.
func (r *Report) MeanRecovery() sim.Time {
	if len(r.Recoveries) == 0 {
		return 0
	}
	var total sim.Time
	for _, rec := range r.Recoveries {
		total += rec.Rework + rec.Downtime
	}
	return total / sim.Time(len(r.Recoveries))
}

// Run drives a job to completion under supervision: it arms the fault
// plan, runs the world, and on a node failure restarts from the last
// checkpoint onto a spare, up to MaxRestarts times. It is the
// crash-only case of the one supervisor loop: RunElastic's, with a
// fault plan and no churn. A crash before any checkpoint restarts the
// job from scratch. With an empty plan Run adds nothing to the run: it
// builds and runs the world exactly as an unsupervised caller would, so
// fault-free supervised runs are bit-identical to bare ones.
//
// Run returns the report alongside any error; on error the report
// covers the attempts made so far.
func Run(job Job) (*Report, error) {
	if job.Program == nil {
		return nil, errNoProgram
	}
	if job.Recovery != Spare {
		return nil, fmt.Errorf("ft: recovery mode %d: a crash recovers onto a spare only", int(job.Recovery))
	}
	rep, err := supervise(ElasticJob{
		Config:      job.Config,
		Program:     job.Program,
		Faults:      job.Plan,
		MaxRestarts: job.MaxRestarts,
	})
	return &rep.Report, err
}

// supervise is the one supervisor loop. An attempt either runs to
// completion or stops for one of three reasons the loop restarts from:
// it drained through a checkpoint ahead of a membership change, it lost
// a node, or the snapshot it was restoring no longer exists. Each stop
// charges the attempt's elapsed time to the one clock (Report.TotalTime),
// takes over the attempt's last snapshot, and reshapes the machine if the
// reason calls for it.
func supervise(job ElasticJob) (*ElasticReport, error) {
	maxRestarts := job.MaxRestarts
	if maxRestarts <= 0 {
		maxRestarts = DefaultMaxRestarts
	}
	s := &supervisor{job: job, cfg: job.Config, rep: &ElasticReport{}}
	for i := range s.cfg.Machine.Nodes {
		s.spans = append(s.spans, [2]sim.Time{0, -1})
		s.open = append(s.open, i)
	}
	for restarts := 0; ; restarts++ {
		a, err := s.start()
		if err != nil {
			return s.rep, err
		}
		runErr := a.w.Run()
		s.settle(a)
		elapsed := a.w.Time()
		var rc *ampi.Reconfigure
		var nf *ampi.NodeFailure
		switch {
		case runErr == nil:
			s.rep.TotalTime += elapsed
			s.rep.World = a.w
			s.rep.NodeSeconds = machine.NodeSecondsOf(s.spans, s.rep.TotalTime)
			return s.rep, nil
		case errors.As(runErr, &rc):
			elapsed = rc.At
		case errors.As(runErr, &nf):
			// The attempt consumed virtual time up to the crash even
			// when the PE clocks lag it (a crash during startup), and
			// PE clocks that ran ahead of the crash were consumed too.
			elapsed = max(elapsed, nf.At)
		case s.lastCk != nil && errors.Is(runErr, ampi.ErrSnapshotLost):
		default:
			// An application or runtime bug: nothing a restart would fix.
			s.rep.TotalTime += elapsed
			return s.rep, runErr
		}
		s.rep.TotalTime += elapsed
		if restarts >= maxRestarts {
			return s.rep, fmt.Errorf("ft: job still failing after %d restart(s): %w", restarts, runErr)
		}
		ck := a.w.LastCheckpoint()
		if nf != nil {
			// A snapshot still being written when the node failed is not
			// there to restart from.
			ck = a.w.CheckpointDurableBy(nf.At)
		}
		if ck != nil {
			s.lastCk = ck
		}
		switch {
		case rc != nil:
			err = s.drained(a)
		case nf != nil:
			err = s.nodeLost(a, nf)
		default:
			s.snapshotLost(elapsed)
		}
		if err != nil {
			return s.rep, err
		}
	}
}

// supervisor is the state the loop carries from one attempt to the next.
type supervisor struct {
	job ElasticJob
	// cfg starts the next attempt: the job's configuration with the
	// machine shape and placement the reshapes so far produced.
	cfg ampi.Config
	rep *ElasticReport
	// spans has one (joined, retired) pair per node ever used, retired
	// < 0 while live, for node-second accounting; open maps a current
	// node id to its span.
	spans    [][2]sim.Time
	open     []int
	lastCk   *ampi.Checkpoint // what the next attempt restores (nil: cold start)
	pending  *RecoveryRecord  // the recovery whose restart cost the next attempt measures
	churnIdx int              // next planned membership event
}

// attempt is one world and what the supervisor armed on it.
type attempt struct {
	w     *ampi.World
	start sim.Time // the clock when the attempt began; its own instants are relative to this
	// churn is the planned membership change armed on this attempt (nil
	// when the plan is exhausted): its drain request fires first, and an
	// eviction's victim leaves at leave — whichever the job reaches first
	// decides drain vs crash.
	churn  *ChurnEvent
	leave  sim.Time
	victim int
}

// start builds the next attempt's world — cold, or from the snapshot in
// hand — and arms it: the fault plan as seen from the current clock and
// the next planned membership change.
func (s *supervisor) start() (*attempt, error) {
	a := &attempt{start: s.rep.TotalTime}
	var err error
	if s.lastCk == nil {
		a.w, err = ampi.NewWorld(s.cfg, s.job.Program())
	} else {
		a.w, err = ampi.NewWorldFromCheckpoint(s.cfg, s.job.Program(), s.lastCk)
	}
	if err != nil {
		return nil, err
	}
	if err := s.job.Faults.Shift(a.start).Arm(a.w); err != nil {
		return nil, err
	}
	if s.churnIdx < len(s.job.Churn.Events) {
		a.churn = &s.job.Churn.Events[s.churnIdx]
		// An overdue event (announced during an earlier attempt) applies
		// as soon as possible.
		rel := max(a.churn.At-a.start, 1)
		if a.churn.Kind == Eviction {
			nodes := s.cfg.Machine.Nodes
			a.victim = (a.churn.Node%nodes + nodes) % nodes
			a.leave = rel + a.churn.Notice
			if err := a.w.ScheduleNodeFailure(a.victim, a.leave); err != nil {
				return nil, err
			}
		}
		if err := a.w.ScheduleReconfigure(rel); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// settle books an ended attempt, however it ended: its counts and the
// restart cost of the recovery that led to it.
func (s *supervisor) settle(a *attempt) {
	s.rep.Attempts++
	s.rep.Checkpoints += a.w.Checkpoints
	if s.pending != nil {
		s.pending.Downtime = a.w.RestoreDone
		if s.pending.Downtime == 0 {
			s.pending.Downtime = a.w.SetupDone
		}
		s.pending.RestoredBytes = a.w.RestoredBytes
		metrics.restoredBytes.Add(s.pending.RestoredBytes)
		s.pending = nil
	}
}

// drained handles a graceful drain ahead of the armed churn event: zero
// rework by construction.
func (s *supervisor) drained(a *attempt) error {
	metrics.drains.Inc()
	s.churnIdx++
	rz := ResizeRecord{At: s.rep.TotalTime, Kind: a.churn.Kind, Delta: a.churn.Count, Drained: true}
	victim, billedUntil := s.cfg.Machine.Nodes-1, rz.At
	if rz.Kind == Eviction {
		// The node is billed until its reclaim deadline, even though the
		// job vacated it at the drain.
		rz.Delta, victim, billedUntil = -1, a.victim, a.start+a.leave
	}
	return s.resize(a.w, rz, victim, billedUntil)
}

// nodeLost handles a node failure. If it is the armed eviction's
// deadline, the notice was too short: the node left before the job
// reached a consistency point, so the machine shrinks and the planned
// change pays rework like a crash. Otherwise it is an unplanned crash:
// a spare replaces the node and the machine keeps its shape.
func (s *supervisor) nodeLost(a *attempt, nf *ampi.NodeFailure) error {
	at := s.rep.TotalTime
	// No snapshot yet: the whole attempt is rework.
	rework := nf.At
	if s.lastCk != nil {
		rework = max(nf.At-s.lastCk.Taken, 0)
		// The node's in-memory snapshot copies died with it (buddy
		// restores read the surviving copy; filesystem ones ignore this).
		s.lastCk.LostNode = nf.Node
	}
	metrics.reworkNS.Add(uint64(rework))
	if a.churn != nil && a.churn.Kind == Eviction && a.victim == nf.Node && a.leave == nf.At {
		s.churnIdx++
		return s.resize(a.w, ResizeRecord{At: at, Kind: Eviction, Delta: -1, Crashed: true, Rework: rework}, nf.Node, at)
	}
	metrics.recoveries.Inc()
	s.rep.Recoveries = append(s.rep.Recoveries, RecoveryRecord{Attempt: s.rep.Attempts, Node: nf.Node, CrashAt: nf.At, Rework: rework})
	s.pending = &s.rep.Recoveries[len(s.rep.Recoveries)-1]
	return nil
}

// snapshotLost handles a restart whose snapshot is gone: back-to-back
// departures outran the checkpoint cadence, so the in-memory snapshot's
// last copies left with a node before a fresh snapshot replaced them.
// Nothing to restore from — the job restarts from the beginning on the
// current (already reshaped) machine, and the failed attempt is rework.
func (s *supervisor) snapshotLost(elapsed sim.Time) {
	s.lastCk = nil
	metrics.reworkNS.Add(uint64(elapsed))
}

// resize executes one membership change — grow by rz.Delta nodes, or
// drop victim, billed until billedUntil — and records it.
func (s *supervisor) resize(w *ampi.World, rz ResizeRecord, victim int, billedUntil sim.Time) error {
	var err error
	if rz.Delta > 0 {
		err = s.grow(w, rz.Delta, rz.At)
	} else {
		err = s.shrink(w, victim, billedUntil)
	}
	if err != nil {
		return fmt.Errorf("ft: %v: %w", rz.Kind, err)
	}
	rz.Nodes = s.cfg.Machine.Nodes
	s.rep.Resizes = append(s.rep.Resizes, rz)
	metrics.epochs.Inc()
	return nil
}

// grow is the one way the machine gains nodes: count nodes join at
// instant at and the next attempt's placement donates work onto them.
func (s *supervisor) grow(w *ampi.World, count int, at sim.Time) error {
	placement, err := expandPlacement(w, s.cfg.Machine, count)
	if err != nil {
		return err
	}
	s.cfg.Machine.Nodes += count
	s.cfg.Placement = placement
	for i := 0; i < count; i++ {
		s.open = append(s.open, len(s.spans))
		s.spans = append(s.spans, [2]sim.Time{at, -1})
	}
	return nil
}

// shrink is the one way the machine loses a node: victim leaves, billed
// until billedUntil, the next attempt's placement remaps its ranks onto
// the survivors, and the snapshot in hand is told whose in-memory copies
// went with it.
func (s *supervisor) shrink(w *ampi.World, victim int, billedUntil sim.Time) error {
	if s.cfg.Machine.Nodes <= 1 {
		return errors.New("cannot shrink below one node")
	}
	placement, err := shrinkPlacement(w, s.cfg.Machine, victim)
	if err != nil {
		return err
	}
	s.cfg.Machine.Nodes--
	s.cfg.Placement = placement
	s.spans[s.open[victim]][1] = billedUntil
	s.open = append(s.open[:victim], s.open[victim+1:]...)
	if s.lastCk != nil {
		s.lastCk.LostNode = victim
	}
	return nil
}

// shrinkPlacement computes where every rank goes when the failed node
// leaves: surviving ranks keep their PE (with ids above the failed node
// shifted down), and ranks displaced from the dead node are remapped by
// GreedyRefineLB onto the least-loaded survivors.
func shrinkPlacement(w *ampi.World, m machine.Config, failed int) ([]int, error) {
	perNode := m.ProcsPerNode * m.PEsPerProc
	newPEs := (m.Nodes - 1) * perNode
	loads := w.RankLoads()
	for i := range loads {
		node := loads[i].PE / perNode
		switch {
		case node == failed:
			loads[i].PE = -1 // displaced: this PE no longer exists
		case node > failed:
			loads[i].PE -= perNode
		}
	}
	assign := lb.GreedyRefineLB{}.Rebalance(loads, newPEs)
	if err := lb.Validate(loads, newPEs, assign); err != nil {
		return nil, err
	}
	return assign, nil
}

// expandPlacement computes where every rank goes when grow nodes join:
// ranks keep their PEs (a spare replaces any dead node under identical
// ids) and GreedyRefineLB donates work onto the arrivals' PEs only.
func expandPlacement(w *ampi.World, m machine.Config, grow int) ([]int, error) {
	perNode := m.ProcsPerNode * m.PEsPerProc
	oldPEs := m.Nodes * perNode
	newPEs := (m.Nodes + grow) * perNode
	arrivals := make([]int, 0, newPEs-oldPEs)
	for pe := oldPEs; pe < newPEs; pe++ {
		arrivals = append(arrivals, pe)
	}
	loads := w.RankLoads()
	assign := lb.GreedyRefineLB{Expand: arrivals}.Rebalance(loads, newPEs)
	if err := lb.Validate(loads, newPEs, assign); err != nil {
		return nil, err
	}
	moves := 0
	for i, pe := range assign {
		if pe != loads[i].PE {
			moves++
		}
	}
	metrics.rebalanceMoves.Add(uint64(moves))
	return assign, nil
}
