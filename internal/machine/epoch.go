package machine

import (
	"fmt"
	"time"

	"provirt/internal/sim"
)

// This file is the membership half of the cluster model: an
// epoch-versioned log of node arrivals and retirements at virtual
// times. Construction is epoch 0; AddNodes and RetireNodes append
// later epochs. Everything that reads the machine shape —
// DomainPlanAt, transfer liveness, node-hour accounting — is stamped
// against this log, so fixed-shape clusters (the overwhelmingly common
// case) stay on the exact pre-elastic code path: their log holds one
// event and the hot paths check a single bool.

// MembershipEvent is one epoch transition in a cluster's life. The
// zero epoch records construction.
type MembershipEvent struct {
	// At is the virtual time the event was logged. For retirements
	// with an eviction notice, At is when the notice arrived; the
	// nodes actually leave at At+Notice.
	At sim.Time
	// Added and Retired are the node ids the event added or retired.
	Added   []int
	Retired []int
	// Notice is the eviction-notice window retirements carried (spot
	// instances announce departure ahead of time; 0 for immediate).
	Notice sim.Time
	// Nodes is the live node count once the event has fully taken
	// effect; NodesBuilt counts every node ever constructed (live or
	// retired) and PEs every PE ever built — the id-space sizes
	// DomainPlanAt partitions.
	Nodes      int
	NodesBuilt int
	PEs        int
}

// Epoch reports the cluster's current membership epoch (0 until the
// first post-construction change).
func (cl *Cluster) Epoch() int { return len(cl.events) - 1 }

// Events returns a copy of the membership epoch log; Events()[i] is
// epoch i's transition and Events()[0] the construction epoch.
func (cl *Cluster) Events() []MembershipEvent {
	out := make([]MembershipEvent, len(cl.events))
	copy(out, cl.events)
	return out
}

// EpochAt reports the epoch in effect at virtual time t: the last
// logged event with At <= t.
func (cl *Cluster) EpochAt(t sim.Time) int {
	e := 0
	for i, ev := range cl.events {
		if ev.At <= t {
			e = i
		}
	}
	return e
}

// AddNodes grows the cluster by count nodes of the configured per-node
// shape at virtual time at, appending a membership epoch. New nodes
// continue the global node/process/PE id sequences, so existing ids
// (and everything keyed on them) are untouched. The log is
// append-only and time-ordered: at must not precede the latest event.
func (cl *Cluster) AddNodes(at sim.Time, count int) ([]*Node, error) {
	if count <= 0 {
		return nil, fmt.Errorf("machine: AddNodes needs a positive count, got %d", count)
	}
	if last := cl.events[len(cl.events)-1].At; at < last {
		return nil, fmt.Errorf("machine: AddNodes at %v precedes the latest membership event at %v", at, last)
	}
	added := cl.buildNodes(at, count)
	cl.events = append(cl.events, MembershipEvent{
		At:         at,
		Added:      added,
		Nodes:      cl.liveCount(),
		NodesBuilt: len(cl.Nodes),
		PEs:        len(cl.pes),
	})
	cl.elastic = true
	nodes := make([]*Node, len(added))
	for i, id := range added {
		nodes[i] = cl.Nodes[id]
	}
	return nodes, nil
}

// RetireNodes removes the named nodes from membership, appending a
// membership epoch. The notice window models spot-instance eviction:
// the retirement is logged (and visible to schedulers) at virtual time
// at, but the nodes remain usable until at+notice — the drain window a
// supervisor spends on a final checkpoint. At least one node must
// remain live.
func (cl *Cluster) RetireNodes(at sim.Time, notice sim.Time, ids ...int) error {
	if len(ids) == 0 {
		return fmt.Errorf("machine: RetireNodes needs at least one node id")
	}
	if notice < 0 {
		return fmt.Errorf("machine: RetireNodes notice must be non-negative, got %v", notice)
	}
	if last := cl.events[len(cl.events)-1].At; at < last {
		return fmt.Errorf("machine: RetireNodes at %v precedes the latest membership event at %v", at, last)
	}
	seen := make(map[int]bool, len(ids))
	for _, id := range ids {
		if id < 0 || id >= len(cl.Nodes) {
			return fmt.Errorf("machine: RetireNodes: no node %d", id)
		}
		if seen[id] {
			return fmt.Errorf("machine: RetireNodes: node %d named twice", id)
		}
		seen[id] = true
		if n := cl.Nodes[id]; n.RetiredAt >= 0 {
			return fmt.Errorf("machine: RetireNodes: node %d already retired at %v", id, n.RetiredAt)
		}
	}
	if cl.liveCount()-len(ids) < 1 {
		return fmt.Errorf("machine: RetireNodes would leave no live nodes (%d live, retiring %d)",
			cl.liveCount(), len(ids))
	}
	leave := at + notice
	retired := append([]int(nil), ids...)
	for _, id := range retired {
		cl.Nodes[id].RetiredAt = leave
	}
	cl.events = append(cl.events, MembershipEvent{
		At:         at,
		Retired:    retired,
		Notice:     notice,
		Nodes:      cl.liveCount(),
		NodesBuilt: len(cl.Nodes),
		PEs:        len(cl.pes),
	})
	cl.elastic = true
	return nil
}

// liveCount counts nodes that have not been retired.
func (cl *Cluster) liveCount() int {
	n := 0
	for _, node := range cl.Nodes {
		if node.RetiredAt < 0 {
			n++
		}
	}
	return n
}

// LiveNodes returns the nodes that are members at virtual time t, in
// id order.
func (cl *Cluster) LiveNodes(t sim.Time) []*Node {
	var out []*Node
	for _, n := range cl.Nodes {
		if n.Live(t) {
			out = append(out, n)
		}
	}
	return out
}

// LivePEs returns the PEs whose nodes are members at virtual time t,
// in global id order.
func (cl *Cluster) LivePEs(t sim.Time) []*PE {
	var out []*PE
	for _, pe := range cl.pes {
		if pe.Proc.Node.Live(t) {
			out = append(out, pe)
		}
	}
	return out
}

// NodeSeconds integrates membership over [0, horizon): the sum over
// nodes of the virtual time each spent as a member — the cost axis of
// an elastic run (node-hours at cloud billing granularity are
// NodeSeconds scaled by 3600s). Nodes still live are charged through
// the horizon.
func (cl *Cluster) NodeSeconds(horizon sim.Time) sim.Time {
	var total sim.Time
	for _, n := range cl.Nodes {
		total += memberSpan(n.JoinedAt, n.RetiredAt, horizon)
	}
	return total
}

// memberSpan is the overlap of [joined, retired) with [0, horizon),
// where retired < 0 means still live.
func memberSpan(joined, retired, horizon sim.Time) sim.Time {
	end := horizon
	if retired >= 0 && retired < end {
		end = retired
	}
	if end <= joined {
		return 0
	}
	return end - joined
}

// NodeSecondsOf integrates a membership timeline kept outside any one
// Cluster — the form an elastic supervisor accumulates while its job
// restarts across cluster instances. spans[i] is one node's
// (joined, retired) pair with retired < 0 meaning live; the result is
// the same integral Cluster.NodeSeconds computes for its own nodes.
func NodeSecondsOf(spans [][2]sim.Time, horizon sim.Time) sim.Time {
	var total sim.Time
	for _, s := range spans {
		total += memberSpan(s[0], s[1], horizon)
	}
	return total
}

// FormatNodeHours renders a node-seconds integral as a fixed-precision
// node-hour string for experiment tables.
func FormatNodeHours(nodeSeconds sim.Time) string {
	return fmt.Sprintf("%.6f", time.Duration(nodeSeconds).Hours())
}
