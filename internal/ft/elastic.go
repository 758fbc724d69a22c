package ft

import (
	"errors"

	"provirt/internal/ampi"
	"provirt/internal/sim"
)

// ElasticJob describes a supervised run on a cluster whose membership
// changes while the job executes: planned arrivals and evictions from
// a ChurnPlan and unplanned crashes from a fault Plan. The supervisor
// executes membership changes the way the runtime's malleability story
// says to (§2.1): drain the job through a checkpoint at a consistency
// point, reshape the machine, restart from the snapshot — so planned
// changes lose no work, while evictions whose notice is too short to
// reach a consistency point degrade into ordinary crashes.
type ElasticJob struct {
	// Config is the job configuration. Config.Checkpoint must be set:
	// drains and recoveries both restart from snapshots.
	Config ampi.Config
	// Program builds a fresh program per attempt (see Job.Program).
	Program func() *ampi.Program
	// Faults is the unplanned-crash schedule, absolute virtual time.
	Faults Plan
	// Churn is the planned membership schedule, absolute virtual time.
	Churn ChurnPlan
	// MaxRestarts bounds total restarts; <= 0 means DefaultMaxRestarts
	// (churn-heavy jobs may need more than the crash default).
	MaxRestarts int
}

// ResizeRecord describes one membership change the supervisor
// executed.
type ResizeRecord struct {
	// At is the absolute virtual time the change took effect (drain
	// completion, or the crash instant for a failed drain).
	At sim.Time
	// Kind is Arrival or Eviction.
	Kind ChurnKind
	// Delta is the node-count change; Nodes the count afterwards.
	Delta int
	Nodes int
	// Drained reports the zero-rework path: the job checkpointed ahead
	// of the change. Crashed reports an eviction whose notice was too
	// short, recovered like an ordinary crash.
	Drained bool
	Crashed bool
	// Rework is the virtual work the change threw away (zero when
	// drained).
	Rework sim.Time
}

// ElasticReport summarizes an elastic run: the shared Report plus the
// membership history and its cost.
type ElasticReport struct {
	Report
	// Resizes has one record per membership change executed; Epochs is
	// len(Resizes).
	Resizes []ResizeRecord
	// NodeSeconds integrates cluster membership over the run: the cost
	// axis (node-hours = NodeSeconds / 3600s).
	NodeSeconds sim.Time
}

// Epochs reports how many membership transitions the run executed.
func (r *ElasticReport) Epochs() int { return len(r.Resizes) }

// ReworkNoticed sums rework across drained (noticed) membership
// changes — zero by construction, pinned by tests as the drain
// dividend.
func (r *ElasticReport) ReworkNoticed() sim.Time {
	var t sim.Time
	for _, rz := range r.Resizes {
		if rz.Drained {
			t += rz.Rework
		}
	}
	return t
}

// ReworkForced sums rework across membership changes that went the
// crash path (notice too short) plus unplanned crash recoveries.
func (r *ElasticReport) ReworkForced() sim.Time {
	var t sim.Time
	for _, rz := range r.Resizes {
		if rz.Crashed {
			t += rz.Rework
		}
	}
	for _, rec := range r.Recoveries {
		t += rec.Rework
	}
	return t
}

var errNoProgram = errors.New("ft: job needs a program factory")

// RunElastic drives an elastic job to completion. With no churn and no
// faults it adds nothing: the world is built and run exactly as a bare
// caller would, so churn-free elastic runs stay bit-identical to
// unsupervised ones, and only a job that had a crash or membership
// change planned adds its node-time to ft_elastic_node_virtual_ns_total.
//
// RunElastic returns the report alongside any error from a started
// job; on error the report covers the attempts made so far.
func RunElastic(job ElasticJob) (*ElasticReport, error) {
	if job.Program == nil {
		return nil, errNoProgram
	}
	if err := job.Churn.Validate(); err != nil {
		return nil, err
	}
	if len(job.Churn.Events) > 0 {
		if p := job.Config.Checkpoint; p == nil || p.Interval <= 0 {
			return nil, errors.New("ft: elastic membership changes need a checkpoint policy to drain through")
		}
	}
	rep, err := supervise(job)
	if err == nil && (len(job.Churn.Events) > 0 || len(job.Faults.Faults) > 0) {
		metrics.nodeNS.Add(uint64(rep.NodeSeconds))
	}
	return rep, err
}
