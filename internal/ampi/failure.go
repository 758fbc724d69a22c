package ampi

import (
	"errors"
	"fmt"

	"provirt/internal/sim"
	"provirt/internal/trace"
	"provirt/internal/ult"
)

// ErrNodeFailed is wrapped by Run's error when an injected hard fault
// kills a node.
var ErrNodeFailed = errors.New("ampi: node failed")

// NodeFailure describes an injected hard fault that killed the job. It
// is the error Run returns (wrapping ErrNodeFailed), so supervisors can
// errors.As it out and drive an automated restart; it also stays
// readable via World.Failure after the run.
type NodeFailure struct {
	// Node is the failed node's id.
	Node int
	// At is the virtual time the node died.
	At sim.Time
	// Killed is the number of ranks resident on the node when it died.
	Killed int
}

// Error implements error.
func (e *NodeFailure) Error() string {
	if e.Killed == 0 {
		return fmt.Sprintf("%v: node %d died at %v with no resident ranks; job aborted (fail-stop)",
			ErrNodeFailed, e.Node, e.At)
	}
	return fmt.Sprintf("%v: node %d died at %v, killing %d rank(s); restart from the last checkpoint",
		ErrNodeFailed, e.Node, e.At, e.Killed)
}

// Unwrap keeps errors.Is(err, ErrNodeFailed) working.
func (e *NodeFailure) Unwrap() error { return ErrNodeFailed }

// ScheduleNodeFailure injects a hard fault: at virtual time `at`, the
// given node dies, killing every rank resident on (or migrating to) it
// and aborting the job. A job that has been checkpointing can then be
// restarted from its last snapshot via NewWorldFromCheckpoint — by hand
// or, automatically, under an ft.Supervisor — the fault-tolerance story
// §2.1 attributes to migratable rank state.
//
// The failure fires between scheduling quanta (the simulation's event
// granularity); ranks die at their next suspension point, which is
// when a real hard fault would be observed by the runtime's fault
// detector. A failure whose time lands after the job has already
// completed is a no-op: a finished world cannot fail. A failure on a
// node hosting zero ranks still aborts the job (fail-stop semantics:
// the runtime's communication layer spans every node), with a message
// saying so.
func (w *World) ScheduleNodeFailure(nodeID int, at sim.Time) error {
	if nodeID < 0 || nodeID >= len(w.Cluster.Nodes) {
		return fmt.Errorf("ampi: no node %d", nodeID)
	}
	w.Cluster.Engine.At(at, func() { w.crashNode(nodeID, at) })
	return nil
}

// crashNode executes a scheduled node failure.
func (w *World) crashNode(nodeID int, at sim.Time) {
	if w.runtimeErr != nil {
		return
	}
	// A failure that fires after every rank finished is a no-op: the
	// job completed before the fault, so there is nothing to kill and
	// no reason to fail a finished world.
	finished := true
	for _, r := range w.Ranks {
		if r.thread.State() != ult.Done {
			finished = false
			break
		}
	}
	if finished {
		return
	}
	killed := 0
	for _, r := range w.Ranks {
		if r.pe.Proc.Node.ID != nodeID {
			continue
		}
		r.thread.Kill(fmt.Sprintf("node %d failed at %v", nodeID, at))
		killed++
	}
	if w.tracer != nil {
		w.tracer.Emit(trace.Event{Time: at, Kind: trace.KindFault,
			PE: -1, VP: -1, Peer: int32(nodeID), Aux: trace.FaultNodeCrash, Bytes: uint64(killed)})
		w.tracer.Emit(trace.Event{Time: at, Kind: trace.KindDetect,
			PE: -1, VP: -1, Peer: int32(nodeID)})
	}
	w.failure = &NodeFailure{Node: nodeID, At: at, Killed: killed}
	w.fail(w.failure)
}
