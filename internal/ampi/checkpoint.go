package ampi

import (
	"errors"
	"fmt"

	"provirt/internal/core"
	"provirt/internal/machine"
	"provirt/internal/sim"
	"provirt/internal/trace"
)

// ErrSnapshotLost reports that a restart's snapshot no longer exists
// anywhere: an in-memory (buddy) checkpoint's surviving copies left
// with nodes that have since departed, before a fresh snapshot could
// replace them. Supervisors that see this can only restart the job
// from the beginning. Filesystem snapshots never produce it.
var ErrSnapshotLost = errors.New("snapshot lost with the nodes that held it")

// CheckpointTarget selects where snapshots live.
type CheckpointTarget int

const (
	// TargetFS writes one file per rank to the shared filesystem.
	// Snapshots survive any failure (including whole-job loss) but every
	// checkpoint contends on the filesystem's aggregate bandwidth.
	TargetFS CheckpointTarget = iota
	// TargetBuddy keeps snapshots in memory, doubly: each rank's home
	// node keeps a local copy and ships the incremental delta to a buddy
	// node ((home+1) mod nodes) over the network. Checkpoints avoid the
	// filesystem entirely and recovery from any single-node failure
	// reads the surviving copy, but a simultaneous node+buddy loss is
	// unrecoverable.
	TargetBuddy
)

// String names the target ("fs", "buddy").
func (t CheckpointTarget) String() string {
	switch t {
	case TargetFS:
		return "fs"
	case TargetBuddy:
		return "buddy"
	default:
		return fmt.Sprintf("CheckpointTarget(%d)", int(t))
	}
}

// MarshalText writes the target's name; a target with none is an error.
func (t CheckpointTarget) MarshalText() ([]byte, error) {
	if t != TargetFS && t != TargetBuddy {
		return nil, fmt.Errorf("ampi: unknown checkpoint target %d", int(t))
	}
	return []byte(t.String()), nil
}

// UnmarshalText parses a target's name: fs or buddy.
func (t *CheckpointTarget) UnmarshalText(text []byte) error {
	switch string(text) {
	case "fs":
		*t = TargetFS
	case "buddy":
		*t = TargetBuddy
	default:
		return fmt.Errorf("ampi: unknown checkpoint target %q (want fs or buddy)", text)
	}
	return nil
}

// CheckpointPolicy is the configuration Rank.CheckpointIfDue consults:
// where snapshots go and how much virtual time should pass between
// them (e.g. ft.DalyInterval for the optimal value given an MTBF). Its
// json tags are the scenario wire format's "checkpoint" object.
type CheckpointPolicy struct {
	Target CheckpointTarget `json:"target"`
	// Dir is the shared-filesystem directory for TargetFS; ignored by
	// TargetBuddy.
	Dir string `json:"dir,omitempty"`
	// Interval is the minimum virtual time between snapshot starts. A
	// zero or negative interval disables CheckpointIfDue.
	Interval sim.Time `json:"interval_ns,omitempty"`
}

// Checkpoint is a consistent snapshot of every rank's migratable state.
// Because rank state serializes exactly as it does for migration, any
// privatization method that supports migration supports
// checkpoint/restart fault tolerance — and any method that cannot
// (PIPglobals, FSglobals) fails here with the same reason (§3.1, §3.2).
type Checkpoint struct {
	// Target records where the snapshot lives; Dir is the filesystem
	// directory for TargetFS snapshots.
	Target CheckpointTarget
	Dir    string
	// Method records the privatization method the snapshot was taken
	// under; restart validation rejects a mismatched config.
	Method   core.Kind
	Payloads []*core.MigrationPayload
	// Homes[i] is the node that hosted Payloads[i]'s rank when the
	// snapshot was taken — for TargetBuddy it is where the local copy
	// lives (the buddy copy is on (Homes[i]+1) mod Nodes).
	Homes []int
	// Nodes is the cluster's node count when the snapshot was taken.
	Nodes int
	// LostNode, when >= 0, marks a node whose in-memory snapshot copies
	// are gone; a TargetBuddy restore fetches those ranks' state from
	// their buddy node instead. Supervisors set it before restarting.
	// -1 (the value checkpoints are created with) means all copies are
	// intact.
	LostNode int
	// Bytes is the total logical snapshot size; DeltaBytes is what this
	// checkpoint actually wrote (dirty blocks only, once each rank has a
	// previous snapshot to be incremental against). A job's first
	// checkpoint writes everything, so there DeltaBytes == Bytes.
	Bytes      uint64
	DeltaBytes uint64
	// Taken is the virtual time the snapshot completed (slowest rank).
	Taken sim.Time
	// VPs records the rank count for restart validation.
	VPs int
}

// CheckpointIfDue is the policy-driven checkpoint call applications
// place at their natural consistency points (iteration boundaries). If
// the world has no CheckpointPolicy (or a non-positive interval) it
// returns false immediately, without synchronizing. Otherwise it is a
// collective: ranks gather, and if the policy's interval has elapsed
// since the previous snapshot a checkpoint is taken; if not, ranks
// simply synchronize. It reports whether a snapshot was taken this
// call — the same answer on every rank.
func (r *Rank) CheckpointIfDue() bool {
	w := r.world
	p := w.Cfg.Checkpoint
	if p == nil || p.Interval <= 0 {
		return false
	}
	w.ckptWaiting = append(w.ckptWaiting, r)
	if len(w.ckptWaiting) == len(w.Ranks) {
		at := r.thread.Now()
		w.Cluster.Engine.At(at, func() { w.runCheckpoint(p) })
	}
	r.thread.Suspend()
	return w.ckptDecision
}

// LastCheckpoint returns the most recent snapshot, or nil.
func (w *World) LastCheckpoint() *Checkpoint { return w.lastCheckpoint }

func (w *World) runCheckpoint(p *CheckpointPolicy) {
	sync := w.Cluster.Engine.Now()
	for _, s := range w.scheds {
		if s.Now() > sync {
			sync = s.Now()
		}
	}
	waiting := w.ckptWaiting
	w.ckptWaiting = nil

	// A pending reconfiguration (ScheduleReconfigure) drains through
	// this consistency point: the snapshot is forced even if the policy
	// interval has not elapsed, and the ranks are not resumed.
	drain := w.reconfigPending

	if !drain && sync-w.lastCkptAt < p.Interval {
		// Not due yet: the gather still synchronizes the ranks (they
		// all resume at the slowest clock), but no snapshot is taken.
		w.ckptDecision = false
		for _, r := range waiting {
			w.wakeAt(r, sync)
		}
		return
	}
	w.ckptDecision = true
	w.lastCkptAt = sync
	w.Checkpoints++

	ck := &Checkpoint{
		Target:   p.Target,
		Dir:      p.Dir,
		Method:   w.Cfg.Privatize,
		Nodes:    len(w.Cluster.Nodes),
		LostNode: -1,
		VPs:      len(w.Ranks),
	}
	for _, r := range waiting {
		payload, err := r.ctx.Serialize()
		if err != nil {
			w.fail(fmt.Errorf("ampi: checkpoint/restart is unavailable: %w", err))
			return
		}
		ck.Payloads = append(ck.Payloads, payload)
		ck.Homes = append(ck.Homes, r.pe.Proc.Node.ID)
		ck.Bytes += payload.Bytes()
		// Snapshots are incremental: each rank pays for the bytes that
		// changed since its previous snapshot.
		delta := payload.DeltaBytes()
		ck.DeltaBytes += delta
		var done sim.Time
		switch p.Target {
		case TargetBuddy:
			// Double in-memory checkpoint: pack the delta locally, ship
			// it to the buddy node, unpack there. The rank resumes once
			// its buddy copy is safe. No filesystem involved.
			cost := w.Cluster.Cost
			buddy := w.Cluster.Nodes[(r.pe.Proc.Node.ID+1)%len(w.Cluster.Nodes)]
			dstPE := buddy.Procs[0].PEs[0]
			depart := sync + cost.CopyTime(delta)
			done = w.Cluster.Transfer(depart, r.pe, dstPE, delta) + cost.CopyTime(delta)
		default:
			// Writes contend on the shared filesystem; the rank resumes
			// when its file is durable.
			done = w.Cluster.FS.WriteFile(sync, checkpointPath(p.Dir, r.vp), delta)
		}
		if done > ck.Taken {
			ck.Taken = done
		}
		if !drain {
			w.wakeAt(r, done)
		}
	}
	w.lastCheckpoint = ck
	if drain {
		// The ranks stay suspended: once the slowest payload is safe the
		// world stops with a *Reconfigure error so the supervisor can
		// rebuild it on the new cluster shape from this snapshot.
		w.Cluster.Engine.At(ck.Taken, func() { w.drainWorld(ck, sync) })
	}
}

func checkpointPath(dir string, vp int) string {
	return fmt.Sprintf("%s/rank-%d.ckpt", dir, vp)
}

// NewWorldFromCheckpoint builds a world whose ranks restart from a
// previously taken checkpoint: after privatization setup, each rank's
// snapshot is read back — from the shared filesystem, or from the
// surviving in-memory copy for buddy checkpoints — and restored into
// its context before the rank's main function runs. The machine shape
// may differ from the original job's (restart after a node failure, or
// shrink/expand), since Isomalloc state is placement-independent.
//
// Go cannot resume a goroutine mid-function, so — like a hot-start in
// a production code — the program's main runs from the top and is
// expected to consult its (restored) privatized state to skip
// completed work.
func NewWorldFromCheckpoint(cfg Config, prog *Program, ck *Checkpoint) (*World, error) {
	if ck == nil {
		return nil, fmt.Errorf("ampi: nil checkpoint")
	}
	if cfg.VPs == 0 {
		cfg.VPs = ck.VPs
	}
	if cfg.VPs != ck.VPs {
		return nil, fmt.Errorf("ampi: checkpoint has %d ranks, config wants %d", ck.VPs, cfg.VPs)
	}
	if len(ck.Payloads) != ck.VPs {
		return nil, fmt.Errorf("ampi: checkpoint has %d payloads for %d ranks; snapshot is incomplete",
			len(ck.Payloads), ck.VPs)
	}
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if ck.Method != core.KindNone && ck.Method != cfg.Privatize {
		return nil, fmt.Errorf("ampi: checkpoint was taken under %v, config restarts under %v; privatized state is not portable across methods",
			ck.Method, cfg.Privatize)
	}
	if !cfg.Privatize.Migratable() {
		return nil, fmt.Errorf("ampi: method %v does not support migratable rank state; checkpoint restart is unavailable", cfg.Privatize)
	}
	cfg.restart = ck
	return NewWorld(cfg, prog)
}

// restoreFromCheckpoint wires restart into world construction: instead
// of adopting rank threads directly at setup completion, each rank's
// snapshot is read back (from the contended filesystem, or from buddy
// memory over the network) and restored, and the thread starts only
// once its state is back. Ranks are charged in vp order, so filesystem
// and link contention fall the same way on every run.
func (w *World) restoreFromCheckpoint(ck *Checkpoint, vpPE []int) error {
	byVP := make(map[int]*core.MigrationPayload, len(ck.Payloads))
	homeByVP := make(map[int]int, len(ck.Payloads))
	for i, p := range ck.Payloads {
		byVP[p.VP] = p
		if i < len(ck.Homes) {
			homeByVP[p.VP] = ck.Homes[i]
		}
	}
	for vp := range w.Ranks {
		if byVP[vp] == nil {
			return fmt.Errorf("ampi: checkpoint missing rank %d", vp)
		}
	}
	if ck.Target == TargetBuddy {
		if len(ck.Homes) != len(ck.Payloads) {
			return fmt.Errorf("ampi: buddy checkpoint has %d home records for %d payloads", len(ck.Homes), len(ck.Payloads))
		}
		if ck.Nodes <= 0 {
			return fmt.Errorf("ampi: buddy checkpoint records no cluster shape")
		}
		if ck.LostNode >= 0 && ck.Nodes < 2 {
			return fmt.Errorf("ampi: buddy checkpoint on a 1-node cluster cannot survive losing node %d: %w", ck.LostNode, ErrSnapshotLost)
		}
	} else {
		// The shared filesystem persists across jobs: make the previous
		// job's checkpoint files visible to this cluster.
		for _, p := range ck.Payloads {
			w.Cluster.FS.Populate(checkpointPath(ck.Dir, p.VP), p.Bytes())
		}
	}
	engine := w.Cluster.Engine
	engine.At(w.SetupDone, func() {
		for vp, r := range w.Ranks {
			payload := byVP[vp]
			pe := w.scheds[vpPE[vp]]
			ready, err := w.restoreReady(ck, vp, homeByVP[vp], pe.PE, payload)
			if err != nil {
				w.fail(err)
				return
			}
			engine.At(ready, func() {
				if err := r.ctx.RestoreInto(payload, w.sharedInstanceOf(pe.PE.Proc)); err != nil {
					w.fail(fmt.Errorf("ampi: restart rank %d: %w", r.vp, err))
					return
				}
				w.noteRestore(r, payload, ready)
				pe.Adopt(r.thread)
			})
		}
	})
	return nil
}

// restoreReady is when rank vp's snapshot p is back on pe, from setup
// completion: read from the shared filesystem, or unpacked from an
// in-memory copy — its old home node's, or the buddy's if home is the
// node marked lost — that is first shipped over the network when it
// lives on another node. A shrunk restart (one fewer node) drops the
// lost node's id and shifts the ids above it down; same-shape restarts
// map identically.
func (w *World) restoreReady(ck *Checkpoint, vp, home int, pe *machine.PE, p *core.MigrationPayload) (sim.Time, error) {
	if ck.Target != TargetBuddy {
		done, _, err := w.Cluster.FS.ReadFile(w.SetupDone, checkpointPath(ck.Dir, vp))
		if err != nil {
			return 0, fmt.Errorf("ampi: restart rank %d: %w", vp, err)
		}
		return done, nil
	}
	src := home
	if home == ck.LostNode {
		src = (home + 1) % ck.Nodes // the buddy holds the only copy
	}
	id := src
	if len(w.Cluster.Nodes) < ck.Nodes && ck.LostNode >= 0 && src > ck.LostNode {
		id = src - 1
	}
	if id < 0 || id >= len(w.Cluster.Nodes) {
		return 0, fmt.Errorf("ampi: buddy restore: snapshot node %d has no counterpart on this %d-node cluster: %w",
			src, len(w.Cluster.Nodes), ErrSnapshotLost)
	}
	cost, n := w.Cluster.Cost, p.Bytes()
	srcPE := w.Cluster.Nodes[id].Procs[0].PEs[0]
	if srcPE.Proc.Node == pe.Proc.Node {
		return w.SetupDone + cost.CopyTime(n), nil
	}
	return w.Cluster.Transfer(w.SetupDone+cost.CopyTime(n), srcPE, pe, n) + cost.CopyTime(n), nil
}

// noteRestore records restore accounting and emits the rank's recovery
// span, from setup completion to done. It runs inside the restore
// completion callback, so tracing adds no engine events and traced runs
// stay bit-identical to untraced ones.
func (w *World) noteRestore(r *Rank, p *core.MigrationPayload, done sim.Time) {
	w.RestoredBytes += p.Bytes()
	if done > w.RestoreDone {
		w.RestoreDone = done
	}
	if done > w.lastCkptAt {
		w.lastCkptAt = done // checkpoint intervals count from the restore
	}
	if w.tracer != nil {
		w.tracer.Emit(trace.Event{Time: w.SetupDone, Dur: done - w.SetupDone, Kind: trace.KindRecover,
			PE: int32(r.pe.ID), VP: int32(r.vp), Peer: -1, Aux: int32(w.Cfg.restart.Target), Bytes: p.Bytes()})
	}
}
