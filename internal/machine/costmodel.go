// Package machine models the hardware substrate of the evaluation: a
// cluster of nodes with multi-core processors, a tiered interconnect, and
// a shared parallel filesystem. All costs are charged to the discrete-event
// clock from a CostModel calibrated against the magnitudes the paper
// reports for Bridges-2 (AMD EPYC 7742 nodes, Mellanox Infiniband).
package machine

import "time"

// CostModel holds every latency and bandwidth constant the simulation
// charges. Experiments never invent costs inline; they all flow from here
// so ablations can swap a single field and observe sensitivity.
type CostModel struct {
	// --- User-level threading (Figure 6) ---

	// ULTSwitchBase is the cost of one user-level thread context switch
	// including scheduler overhead, with no privatization enabled. The
	// paper cites ~100ns.
	ULTSwitchBase time.Duration
	// TLSSwitchCost is the additional cost of updating the TLS segment
	// pointer at a context switch (TLSglobals and PIEglobals pay this).
	TLSSwitchCost time.Duration
	// GOTSwapCost is the additional cost of swapping the Global Offset
	// Table pointer at a context switch (Swapglobals pays this).
	GOTSwapCost time.Duration

	// --- Variable access (Figure 7) ---

	// GlobalAccessDirect is the cost of one load/store of an
	// unprivatized global (PC-relative or absolute addressing).
	GlobalAccessDirect time.Duration
	// GlobalAccessIndirect is the cost of one load/store through one
	// level of indirection (GOT entry or TLS block pointer) when the
	// compiler cannot cache the base register. At the optimization
	// levels the paper uses, the indirection is hoisted out of inner
	// loops, so the effective extra cost is zero; the raw (unoptimized)
	// extra cost is kept for the ablation bench.
	GlobalAccessIndirect time.Duration
	// CompilerHoistsIndirection reports whether inner-loop privatized
	// accesses are charged at the direct rate (the paper's §4.3
	// hypothesis that optimizing compilers hide the indirection).
	CompilerHoistsIndirection bool

	// --- Memory operations ---

	// MemcpyBandwidth is bytes/second for large intra-process copies
	// (code/data segment duplication, TLS template copies).
	MemcpyBandwidth float64
	// PointerScanPerWord is the cost of inspecting one 8-byte word of
	// the data segment during PIEglobals' pointer-fixup scan.
	PointerScanPerWord time.Duration
	// PageMapCost is the per-page cost of establishing a mapping
	// (mmap/mprotect bookkeeping in the simulated kernel).
	PageMapCost time.Duration

	// --- Dynamic linking (Figure 5) ---

	// ExecLoadBase is the one-time cost of loading the initial
	// executable and the runtime into a process.
	ExecLoadBase time.Duration
	// RuntimeInitBase is the one-time cost of AMPI/Charm++ runtime
	// bring-up per process (network endpoints, scheduler threads,
	// location manager). It dominates baseline startup, which is why
	// modest per-rank privatization work stays within ~10% (Fig. 5).
	RuntimeInitBase time.Duration
	// DlopenBase is the fixed cost of one dlopen call (file open,
	// header parse) excluding per-relocation and per-page work.
	DlopenBase time.Duration
	// DlmopenExtra is dlmopen's additional fixed cost over dlopen
	// (fresh link-map namespace construction).
	DlmopenExtra time.Duration
	// RelocationCost is the cost of processing one relocation entry.
	RelocationCost time.Duration
	// CtorReplayPerAlloc is the cost of replaying one logged static
	// constructor heap allocation for a new rank under PIEglobals.
	CtorReplayPerAlloc time.Duration

	// --- Interconnect ---

	// SharedMemLatency/Bandwidth: ranks in the same OS process.
	SharedMemLatency   time.Duration
	SharedMemBandwidth float64
	// IntraNodeLatency/Bandwidth: different processes, same node.
	IntraNodeLatency   time.Duration
	IntraNodeBandwidth float64
	// InterNodeLatency/Bandwidth: across the interconnect.
	InterNodeLatency   time.Duration
	InterNodeBandwidth float64
	// MsgSendOverhead and MsgRecvOverhead are the per-message CPU costs
	// of the runtime's send and receive paths (envelope handling,
	// matching).
	MsgSendOverhead time.Duration
	MsgRecvOverhead time.Duration
	// MigrationOverhead is the fixed per-migration runtime cost
	// (location management update, barrier participation).
	MigrationOverhead time.Duration

	// --- Shared filesystem (FSglobals) ---

	// FSOpenLatency is the per-file metadata cost (open/create/stat).
	FSOpenLatency time.Duration
	// FSBandwidth is the aggregate shared-filesystem bandwidth in
	// bytes/second; concurrent clients serialize on it, which is what
	// makes FSglobals startup degrade with scale (§3.2).
	FSBandwidth float64

	// --- Compute ---

	// FlopTime is the cost of one floating-point stencil update worth
	// of work (used by the Jacobi and ADCIRC workloads).
	FlopTime time.Duration
}

// Default returns the cost model used by all headline experiments,
// calibrated to the magnitudes reported in the paper: ~100ns ULT context
// switches with every method within ~12ns of baseline (Fig. 6), startup
// overheads within ~10% of baseline for the dlmopen-based methods at 8x
// virtualization (Fig. 5), and migration dominated by bytes moved over an
// Infiniband-class network (Fig. 8).
func Default() *CostModel {
	return &CostModel{
		ULTSwitchBase: 100 * time.Nanosecond,
		TLSSwitchCost: 11 * time.Nanosecond,
		GOTSwapCost:   6 * time.Nanosecond,

		GlobalAccessDirect:        1 * time.Nanosecond,
		GlobalAccessIndirect:      2 * time.Nanosecond,
		CompilerHoistsIndirection: true,

		MemcpyBandwidth:    12e9, // 12 GB/s single-core copy
		PointerScanPerWord: 1 * time.Nanosecond,
		PageMapCost:        150 * time.Nanosecond,

		ExecLoadBase:       5 * time.Millisecond,
		RuntimeInitBase:    90 * time.Millisecond,
		DlopenBase:         120 * time.Microsecond,
		DlmopenExtra:       80 * time.Microsecond,
		RelocationCost:     40 * time.Nanosecond,
		CtorReplayPerAlloc: 300 * time.Nanosecond,

		SharedMemLatency:   600 * time.Nanosecond,
		SharedMemBandwidth: 8e9,
		IntraNodeLatency:   900 * time.Nanosecond,
		IntraNodeBandwidth: 6e9,
		InterNodeLatency:   1500 * time.Nanosecond,
		InterNodeBandwidth: 12e9, // HDR Infiniband class
		MsgSendOverhead:    250 * time.Nanosecond,
		MsgRecvOverhead:    200 * time.Nanosecond,
		MigrationOverhead:  50 * time.Microsecond,

		FSOpenLatency: 250 * time.Microsecond,
		FSBandwidth:   2e9,

		FlopTime: 1 * time.Nanosecond,
	}
}

// CopyTime returns the virtual time to memcpy n bytes within a process.
func (c *CostModel) CopyTime(n uint64) time.Duration {
	return time.Duration(float64(n) / c.MemcpyBandwidth * float64(time.Second))
}

// PageMapTime returns the cost of mapping n bytes of fresh pages.
func (c *CostModel) PageMapTime(n uint64) time.Duration {
	pages := (n + 4095) / 4096
	return time.Duration(pages) * c.PageMapCost
}
