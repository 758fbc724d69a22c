package trace

import (
	"bufio"
	"io"
	"time"
)

// This file is the event-tracing core: a Projections-style virtual-time
// event stream for the simulated AMPI runtime. The runtime packages
// (ult, machine, ampi) each hold an optional *Recorder and emit events
// at their hook points; a nil recorder costs exactly one pointer
// comparison per hook, so untraced runs pay nothing measurable and —
// because no hook ever advances a clock or perturbs scheduling —
// traced and untraced runs of the same configuration are bit-identical
// in every experiment row.
//
// All timestamps are virtual time (time.Duration offsets from
// simulation start, the same representation as sim.Time). Since each
// simulation runs on one logical thread, events are emitted in a
// deterministic order: the trace of a configuration is a pure function
// of that configuration, byte-identical across repeated runs and
// across serial vs parallel experiment sweeps.

// Kind classifies a trace event.
type Kind uint8

const (
	// KindSetup spans one process's privatization setup (dlopen/dlmopen
	// work, FS copies) from t=0 to its completion. PE is the process's
	// first PE.
	KindSetup Kind = iota
	// KindIdle spans a gap in which a PE had no ready thread.
	KindIdle
	// KindSwitch spans one ULT context switch on a PE: scheduler base
	// cost plus the privatization method's surcharge. VP is the thread
	// switched to, Peer the thread switched from (-1 for none).
	KindSwitch
	// KindExec spans one scheduling quantum: VP ran on PE from Time for
	// Dur of virtual time.
	KindExec
	// KindSendPost marks a send entering the network (instant).
	KindSendPost
	// KindRecvPost marks a receive being posted (instant).
	KindRecvPost
	// KindMatch marks a message matching a receive (instant). Aux is
	// MatchOnDeliver or MatchOnPost.
	KindMatch
	// KindUnexpected marks a message queuing as unexpected (instant).
	KindUnexpected
	// KindWait spans a rank blocked in Wait (Aux=WaitMessage) or
	// suspended in the AMPI_Migrate collective (Aux=WaitMigrate).
	KindWait
	// KindColl spans one rank-level collective call; Aux is the CollOp.
	KindColl
	// KindMigration spans one rank migration from PE (Peer is the
	// destination PE), pack to unpack, in virtual time.
	KindMigration
	// KindLink spans a message's flight on a network tier: PE is the
	// source, Peer the destination, Aux the Tier* constant.
	KindLink
	// KindFSIO spans one shared-filesystem transfer (after queueing on
	// the shared bandwidth resource).
	KindFSIO
	// KindRunEnd marks job completion at the final virtual time.
	KindRunEnd
	// KindFault marks an injected node crash taking effect: Aux is
	// FaultNodeCrash, Peer the node id and Bytes the number of ranks
	// killed.
	KindFault
	// KindDetect marks the runtime observing a fault and aborting the
	// job (the fault-detector instant a supervisor reacts to). Peer is
	// the failed node id.
	KindDetect
	// KindRecover spans one rank's state restoration during a restart
	// from a checkpoint: setup completion to restore completion, with
	// Bytes the restored payload size. Aux is the Checkpoint target
	// code (0 = shared FS, 1 = buddy memory).
	KindRecover
	// KindDrain spans a drain checkpoint: the forced snapshot taken
	// between an eviction notice arriving and the node leaving, so
	// planned departures lose no work. Aux is the Checkpoint target
	// code (0 = shared FS, 1 = buddy memory), Bytes the payload size.
	KindDrain

	numKinds
)

var kindNames = [numKinds]string{
	KindSetup:      "setup",
	KindIdle:       "idle",
	KindSwitch:     "switch",
	KindExec:       "exec",
	KindSendPost:   "send_post",
	KindRecvPost:   "recv_post",
	KindMatch:      "match",
	KindUnexpected: "unexpected",
	KindWait:       "wait",
	KindColl:       "coll",
	KindMigration:  "migration",
	KindLink:       "link",
	KindFSIO:       "fs_io",
	KindRunEnd:     "run_end",
	KindFault:      "fault",
	KindDetect:     "detect",
	KindRecover:    "recover",
	KindDrain:      "drain",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Aux values for KindMatch.
const (
	// MatchOnDeliver: an arriving message found a posted receive.
	MatchOnDeliver int32 = 0
	// MatchOnPost: a posted receive found a queued unexpected message.
	MatchOnPost int32 = 1
)

// Aux values for KindWait.
const (
	// WaitMessage: blocked in Wait on a receive.
	WaitMessage int32 = 0
	// WaitMigrate: suspended in the AMPI_Migrate collective.
	WaitMigrate int32 = 1
)

// CollOp codes carried in Event.Aux for KindColl events: the two
// rank-level collectives. The numbers are part of the trace format.
const (
	CollBarrier   int32 = 0
	CollAllreduce int32 = 3
)

// CollName names a CollOp code.
func CollName(op int32) string {
	switch op {
	case CollBarrier:
		return "barrier"
	case CollAllreduce:
		return "allreduce"
	}
	return "coll?"
}

// FaultNodeCrash is the Aux of every KindFault event: a node died
// (fail-stop), killing its ranks.
const FaultNodeCrash int32 = 0

// Network tier codes carried in Event.Aux for KindLink events.
const (
	TierSharedMem int32 = iota
	TierIntraNode
	TierInterNode
)

var tierNames = [...]string{
	TierSharedMem: "shm",
	TierIntraNode: "intra_node",
	TierInterNode: "inter_node",
}

// TierName names a network tier code.
func TierName(tier int32) string {
	if tier >= 0 && int(tier) < len(tierNames) {
		return tierNames[tier]
	}
	return "tier?"
}

// Event is one trace record. It is a fixed-size value — hook sites
// build it on the stack and hand it to the Recorder by value, so an
// enabled trace costs one slice append per event and a disabled one
// costs a nil check. Fields that do not apply to a Kind are -1 (ids)
// or 0 (quantities).
type Event struct {
	// Time is the event's virtual start time.
	Time time.Duration
	// Dur is the span length; 0 for instantaneous events.
	Dur time.Duration
	// Kind classifies the event.
	Kind Kind
	// PE is the processing element (or source PE for KindLink); -1 if
	// not PE-bound.
	PE int32
	// VP is the virtual rank; -1 for PE- or machine-level events.
	VP int32
	// Peer is the other party: destination rank for sends, source rank
	// for matches, previous thread for switches, destination PE for
	// links and migrations; -1 when absent.
	Peer int32
	// Tag is the message tag (point-to-point events).
	Tag int32
	// Aux carries a kind-specific code: CollOp, Tier, Match*, Wait*.
	Aux int32
	// Bytes is the payload/wire size where applicable.
	Bytes uint64
}

// Recorder is the one trace sink every hook holds: it keeps every event
// it is handed, either retained in memory, for export or profiling
// after the run, or streamed as JSONL to a writer (NewJSONLRecorder).
// Emit is called from the world's single logical thread, in
// deterministic order, and never touches simulation state. A streaming
// recorder encodes its buffer every streamWindow events and reuses it,
// so a million-rank trace costs one window of host memory, not 48
// bytes an event; its bytes equal WriteJSONL over the retained events.
// The first write error sticks: nothing more is written, and Close
// reports it.
type Recorder struct {
	events  []Event
	bw      *bufio.Writer // nil: retain every event
	written int
}

// Tracer names the one recorder type in hook fields and signatures.
type Tracer = *Recorder

// streamWindow is how many events a streaming recorder buffers between
// writes.
const streamWindow = 4096

// NewRecorder returns a recorder retaining every event in memory.
func NewRecorder() *Recorder { return &Recorder{} }

// NewJSONLRecorder returns a recorder streaming every event to w in the
// canonical JSONL encoding. Call Close after the run to write the tail.
func NewJSONLRecorder(w io.Writer) *Recorder {
	return &Recorder{bw: bufio.NewWriter(w), events: make([]Event, 0, streamWindow)}
}

// Emit records the event.
func (r *Recorder) Emit(ev Event) {
	r.events = append(r.events, ev)
	if r.bw != nil && len(r.events) == streamWindow {
		r.drain()
	}
}

// drain encodes and clears a streaming recorder's buffer. bufio.Writer
// keeps its first error and writes nothing after it.
func (r *Recorder) drain() {
	for _, ev := range r.events {
		if writeEventJSONL(r.bw, ev) != nil {
			break
		}
	}
	r.written += len(r.events)
	r.events = r.events[:0]
}

// Events returns the retained events in emission order; a streaming
// recorder holds only its unwritten buffer. The slice is owned by the
// recorder; callers must not mutate it.
func (r *Recorder) Events() []Event { return r.events }

// Len reports the number of events emitted, written or retained.
func (r *Recorder) Len() int { return r.written + len(r.events) }

// Close writes a streaming recorder's buffered tail and flushes it,
// returning the stream's first write error; on a retaining recorder it
// does nothing.
func (r *Recorder) Close() error {
	if r.bw == nil {
		return nil
	}
	r.drain()
	return r.bw.Flush()
}
