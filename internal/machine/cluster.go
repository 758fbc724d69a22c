package machine

import (
	"fmt"
	"time"

	"provirt/internal/mem"
	"provirt/internal/sim"
	"provirt/internal/trace"
)

// Config describes a cluster to simulate.
type Config struct {
	// Nodes is the number of compute nodes.
	Nodes int
	// ProcsPerNode is the number of OS processes launched per node
	// (one per socket or per node is typical for AMPI's SMP mode).
	ProcsPerNode int
	// PEsPerProc is the number of processing elements (scheduler
	// threads pinned to cores) per process. PEsPerProc > 1 is what the
	// paper calls SMP mode.
	PEsPerProc int
	// Cost is the cost model; nil selects Default().
	Cost *CostModel
	// Seed drives all pseudo-randomness in the run.
	Seed uint64
}

// Validate checks the configuration for structural errors.
func (c Config) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("machine: Nodes must be positive, got %d", c.Nodes)
	}
	if c.ProcsPerNode <= 0 {
		return fmt.Errorf("machine: ProcsPerNode must be positive, got %d", c.ProcsPerNode)
	}
	if c.PEsPerProc <= 0 {
		return fmt.Errorf("machine: PEsPerProc must be positive, got %d", c.PEsPerProc)
	}
	return nil
}

// SMPMode reports whether processes host more than one PE.
func (c Config) SMPMode() bool { return c.PEsPerProc > 1 }

// Cluster is the simulated machine: nodes containing OS processes
// containing PEs, joined by a tiered network and a shared filesystem.
// Its shape is fixed at construction: an elastic job reshapes by
// building a new cluster (see package ft).
type Cluster struct {
	Engine *sim.Engine
	Cost   *CostModel
	Nodes  []*Node
	FS     *SharedFS

	// Tracer, when non-nil, receives link-occupancy events from
	// Transfer. Nil (the default) costs one pointer comparison.
	Tracer trace.Tracer

	pes []*PE
}

// SetTracer wires a tracer through the machine layer: link occupancy
// on the cluster, transfer spans on the shared filesystem, and
// dispatch events on the engine.
func (cl *Cluster) SetTracer(t trace.Tracer) {
	cl.Tracer = t
	cl.FS.tracer = t
	cl.Engine.SetTracer(t)
}

// Node is one compute node.
type Node struct {
	ID    int
	Procs []*Process
}

// Process is one OS process: an address space plus one or more PEs.
type Process struct {
	ID   int // global process id
	Node *Node
	PEs  []*PE
	AS   *mem.AddressSpace

	heapArena *mem.Region
	heapNext  uint64
}

// Malloc allocates n bytes on the process's (non-migratable) heap and
// returns the address. This is the allocator static constructors hit at
// dlopen time — allocations the privatization runtime cannot intercept.
func (p *Process) Malloc(n uint64) uint64 {
	n = (n + 7) &^ 7
	if p.heapArena == nil || p.heapNext+n > p.heapArena.End() {
		size := uint64(1 << 24)
		if n > size {
			size = n
		}
		p.heapArena = p.AS.Mmap(size, "process-heap")
		p.heapNext = p.heapArena.Base
	}
	addr := p.heapNext
	p.heapNext += n
	return addr
}

// PE is a processing element: one scheduler thread pinned to a core.
type PE struct {
	ID   int // global PE id
	Proc *Process
}

// New builds a cluster per cfg. The engine clock starts at zero.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cost := cfg.Cost
	if cost == nil {
		cost = Default()
	}
	cl := &Cluster{
		Engine: sim.NewEngine(),
		Cost:   cost,
	}
	cl.FS = NewSharedFS(cost)
	procID := 0
	for i := 0; i < cfg.Nodes; i++ {
		node := &Node{ID: i}
		for p := 0; p < cfg.ProcsPerNode; p++ {
			proc := &Process{ID: procID, Node: node, AS: mem.NewAddressSpace()}
			procID++
			for q := 0; q < cfg.PEsPerProc; q++ {
				pe := &PE{ID: len(cl.pes), Proc: proc}
				proc.PEs = append(proc.PEs, pe)
				cl.pes = append(cl.pes, pe)
			}
			node.Procs = append(node.Procs, proc)
		}
		cl.Nodes = append(cl.Nodes, node)
	}
	return cl, nil
}

// PEs returns every PE in global id order.
func (cl *Cluster) PEs() []*PE { return cl.pes }

// PE returns the PE with global id i.
func (cl *Cluster) PE(i int) *PE { return cl.pes[i] }

// Processes returns every process in global id order.
func (cl *Cluster) Processes() []*Process {
	var out []*Process
	for _, n := range cl.Nodes {
		out = append(out, n.Procs...)
	}
	return out
}

// DomainPlan partitions the cluster's PEs into conservative-lookahead
// domains for parallel simulation: domains follow the coarsest machine
// tier with more than one unit — one domain per node on a multi-node
// machine, else per process, else per PE — so the cheapest link that
// can cross a domain boundary is as slow as the machine allows.
// It returns the per-PE domain assignment (indexed by global PE id),
// the domain count, and the lookahead bound: the minimum latency of
// any cross-domain link. When the natural unit count exceeds
// sim.MaxDomains, contiguous units share a domain; merging whole units
// only removes boundaries, so the bound still holds.
func (cl *Cluster) DomainPlan() (domOf []int32, ndom int, lookahead time.Duration) {
	pes := cl.pes
	nodes, procs := len(cl.Nodes), len(cl.Processes())
	// unitOf maps each PE to its partition unit at the chosen tier.
	unitOf := make([]int, len(pes))
	var units int
	switch {
	case nodes > 1:
		units = nodes
		for i, pe := range pes {
			unitOf[i] = pe.Proc.Node.ID
		}
		lookahead = cl.Cost.MinLatencyAcross(false, false)
	case procs > 1:
		units = procs
		for i, pe := range pes {
			unitOf[i] = pe.Proc.ID
		}
		lookahead = cl.Cost.MinLatencyAcross(true, false)
	default:
		units = len(pes)
		for i := range pes {
			unitOf[i] = i
		}
		lookahead = cl.Cost.MinLatencyAcross(true, true)
	}
	ndom = units
	if ndom > sim.MaxDomains {
		ndom = sim.MaxDomains
	}
	domOf = make([]int32, len(pes))
	for i, u := range unitOf {
		domOf[i] = int32(u * ndom / units)
	}
	return domOf, ndom, lookahead
}

// TransferTime returns the network cost of moving n bytes from PE a to
// PE b, picking the tier from their relative placement.
func (cl *Cluster) TransferTime(a, b *PE, n uint64) time.Duration {
	c := cl.Cost
	switch {
	case a.Proc == b.Proc:
		return c.SharedMemLatency + time.Duration(float64(n)/c.SharedMemBandwidth*float64(time.Second))
	case a.Proc.Node == b.Proc.Node:
		return c.IntraNodeLatency + time.Duration(float64(n)/c.IntraNodeBandwidth*float64(time.Second))
	default:
		return c.InterNodeLatency + time.Duration(float64(n)/c.InterNodeBandwidth*float64(time.Second))
	}
}

// Tier reports which network tier joins two PEs.
func (cl *Cluster) Tier(a, b *PE) int32 {
	switch {
	case a.Proc == b.Proc:
		return trace.TierSharedMem
	case a.Proc.Node == b.Proc.Node:
		return trace.TierIntraNode
	default:
		return trace.TierInterNode
	}
}

// Transfer charges a transfer of n bytes departing PE a for PE b at
// virtual time start and returns its arrival, start + TransferTime(a, b,
// n). Anchoring it at the departure lets the tracer record the flight
// as a link-occupancy span.
func (cl *Cluster) Transfer(start sim.Time, a, b *PE, n uint64) sim.Time {
	d := cl.TransferTime(a, b, n)
	if cl.Tracer != nil {
		cl.Tracer.Emit(trace.Event{Time: start, Dur: d, Kind: trace.KindLink,
			PE: int32(a.ID), VP: -1, Peer: int32(b.ID), Aux: cl.Tier(a, b), Bytes: n})
	}
	return start + d
}

// SharedFS models a parallel filesystem whose aggregate bandwidth is
// shared by all clients. Transfers serialize on the filesystem resource,
// so per-client throughput degrades as more processes do I/O at once —
// the behaviour that makes FSglobals startup scale poorly (§3.2).
type SharedFS struct {
	cost     *CostModel
	busyTill sim.Time
	tracer   trace.Tracer

	files map[string]uint64 // path -> size

	// Stats
	BytesWritten uint64
	BytesRead    uint64
	Opens        uint64
}

// NewSharedFS returns an empty filesystem.
func NewSharedFS(c *CostModel) *SharedFS {
	return &SharedFS{cost: c, files: make(map[string]uint64)}
}

// transfer charges a transfer of n bytes starting no earlier than start
// and returns its completion time.
func (fs *SharedFS) transfer(start sim.Time, n uint64) sim.Time {
	if fs.busyTill > start {
		start = fs.busyTill
	}
	done := start + fs.cost.FSOpenLatency +
		time.Duration(float64(n)/fs.cost.FSBandwidth*float64(time.Second))
	fs.busyTill = done
	if fs.tracer != nil {
		// The span starts when the transfer reaches the head of the
		// shared-bandwidth queue, so concurrent clients render as the
		// serialized occupancy the FSglobals startup pathology is about.
		fs.tracer.Emit(trace.Event{Time: start, Dur: done - start, Kind: trace.KindFSIO,
			PE: -1, VP: -1, Peer: -1, Bytes: n})
	}
	return done
}

// WriteFile writes a file of n bytes beginning at virtual time start and
// returns the completion time.
func (fs *SharedFS) WriteFile(start sim.Time, path string, n uint64) sim.Time {
	fs.files[path] = n
	fs.Opens++
	fs.BytesWritten += n
	return fs.transfer(start, n)
}

// ReadFile reads the named file beginning at start; it returns the
// completion time and the file size.
func (fs *SharedFS) ReadFile(start sim.Time, path string) (sim.Time, uint64, error) {
	n, ok := fs.files[path]
	if !ok {
		return start, 0, fmt.Errorf("machine: shared fs: no such file %q", path)
	}
	fs.Opens++
	fs.BytesRead += n
	return fs.transfer(start, n), n, nil
}

// Populate records a pre-existing file without charging I/O time —
// contents written by an earlier job on the persistent shared
// filesystem (e.g. checkpoint files a restarted job reads back).
func (fs *SharedFS) Populate(path string, n uint64) {
	fs.files[path] = n
}

// Exists reports whether path is present.
func (fs *SharedFS) Exists(path string) bool {
	_, ok := fs.files[path]
	return ok
}

// TotalBytes reports the space consumed on the filesystem.
func (fs *SharedFS) TotalBytes() uint64 {
	var t uint64
	for _, n := range fs.files {
		t += n
	}
	return t
}
