package ampi

import (
	"fmt"

	"provirt/internal/lb"
	"provirt/internal/sim"
	"provirt/internal/trace"
)

// MigrationRecord describes one completed rank migration.
type MigrationRecord struct {
	VP     int
	FromPE int
	ToPE   int
	// Bytes is the rank's full logical payload; DeltaBytes is what the
	// move actually transferred (dirty blocks only, when the rank had a
	// previous snapshot to be incremental against).
	Bytes      uint64
	DeltaBytes uint64
	Duration   sim.Time
}

// Migrate is the AMPI_Migrate collective: every rank must call it. The
// runtime takes the opportunity to run the configured load balancer and
// move ranks; ranks resume once any migrations affecting them complete.
func (r *Rank) Migrate() {
	w := r.world
	var stallStart sim.Time
	if w.tracer != nil {
		stallStart = r.thread.Now()
	}
	w.migrateWaiting = append(w.migrateWaiting, r)
	if len(w.migrateWaiting) == len(w.Ranks) {
		at := r.thread.Now()
		w.Cluster.Engine.At(at, func() { w.runBalancer() })
	}
	r.thread.Suspend()
	if w.tracer != nil {
		// The stall covers the collective's barrier semantics plus any
		// serialization/transfer/unpack time for ranks that moved.
		w.tracer.Emit(trace.Event{Time: stallStart, Dur: r.thread.Now() - stallStart,
			Kind: trace.KindWait, PE: int32(r.pe.ID), VP: int32(r.vp), Peer: -1,
			Aux: trace.WaitMigrate})
	}
}

// LastMigrations returns the records from the most recent balancing
// step.
func (w *World) LastMigrations() []MigrationRecord { return w.lastMigrations }

// runBalancer executes one load-balancing step while every rank is
// suspended in the Migrate collective (so no rank state is mutating and
// no application messages are unmatched by construction of the callers).
func (w *World) runBalancer() {
	// Synchronization point: no rank resumes before the slowest PE
	// reached the collective.
	sync := w.Cluster.Engine.Now()
	for _, s := range w.scheds {
		if s.Now() > sync {
			sync = s.Now()
		}
	}
	waiting := w.migrateWaiting
	w.migrateWaiting = nil
	w.lastMigrations = nil

	assign := make([]int, len(waiting))
	loads := make([]lb.RankLoad, len(waiting))
	for i, r := range waiting {
		loads[i] = lb.RankLoad{
			VP:         r.vp,
			PE:         r.PE().ID,
			Load:       r.thread.Load,
			Migratable: w.Cfg.Privatize.Migratable(),
		}
		assign[i] = loads[i].PE
	}
	shouldBalance := w.Cfg.Balancer != nil
	if shouldBalance && w.Cfg.Trigger != nil && !w.Cfg.Trigger.ShouldBalance(loads, len(w.scheds)) {
		shouldBalance = false
		w.SkippedBalances++
	}
	if shouldBalance {
		assign = w.Cfg.Balancer.Rebalance(loads, len(w.scheds))
		if err := lb.Validate(loads, len(w.scheds), assign); err != nil {
			w.fail(fmt.Errorf("ampi: balancer %s produced an invalid mapping: %w", w.Cfg.Balancer.Name(), err))
			return
		}
	}

	for i, r := range waiting {
		r.thread.ResetLoad()
		from, to := loads[i].PE, assign[i]
		if from == to {
			w.wakeAt(r, sync)
			continue
		}
		if err := w.migrateRank(r, from, to, sync); err != nil {
			w.fail(err)
			return
		}
	}
}

// wakeAt resumes a suspended rank at virtual time t on its current
// scheduler.
func (w *World) wakeAt(r *Rank, t sim.Time) {
	w.Cluster.Engine.AtCall(t, wakeRank, r)
}

// wakeRank is wakeAt's trampoline: the rank is the event's argument, so
// a wake-up allocates no closure.
func wakeRank(x any) { x.(*Rank).thread.Wake() }

// migrateRank hands a rank off, charges the transfer, and lands it on
// the destination PE.
func (w *World) migrateRank(r *Rank, from, to int, start sim.Time) error {
	// The rank's context joins the destination process now, as r.pe
	// does below: the rank stays suspended until it lands, so nothing
	// resolves its cells in flight. The transport is incremental: only
	// bytes that changed since the rank's previous snapshot cross the
	// wire. A first-ever migration has no previous snapshot, so wire ==
	// bytes and the modeled cost matches the full-copy runtime exactly.
	srcPE, dstPE := w.Cluster.PE(from), w.Cluster.PE(to)
	bytes, wire, err := r.ctx.Handoff(w.sharedInstanceOf(dstPE.Proc))
	if err != nil {
		return fmt.Errorf("ampi: balancer selected an unmigratable rank: %w", err)
	}
	cost := w.Cluster.Cost
	// Pack on the source, fly, unpack on the destination.
	depart := start + cost.CopyTime(wire)
	arrive := depart + w.Cluster.TransferTime(srcPE, dstPE, wire) +
		cost.CopyTime(wire) + cost.MigrationOverhead

	src := w.scheds[from]
	dst := w.scheds[to]
	src.Remove(r.thread)
	r.pe = dstPE // messages sent mid-flight route to the destination
	w.Cluster.Engine.At(arrive, func() {
		dst.AdoptBlocked(r.thread)
		w.Migrations++
		w.MigratedBytes += bytes
		w.MigratedDeltaBytes += wire
		w.lastMigrations = append(w.lastMigrations, MigrationRecord{
			VP: r.vp, FromPE: from, ToPE: to, Bytes: bytes, DeltaBytes: wire,
			Duration: arrive - start,
		})
		if w.tracer != nil {
			w.tracer.Emit(trace.Event{Time: start, Dur: arrive - start, Kind: trace.KindMigration,
				PE: int32(from), VP: int32(r.vp), Peer: int32(to), Bytes: bytes})
		}
		r.thread.Wake()
	})
	return nil
}
