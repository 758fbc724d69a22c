// Package core implements the paper's primary contribution: automatic
// runtime privatization of global and static program state, so that MPI
// ranks can run as migratable user-level threads inside shared OS
// processes.
//
// Each privatization technique from the paper — the surveyed existing
// ones (§2.3) and the three new runtime methods (§3) — is a Method
// strategy over the synthetic ELF/PIE model in internal/elf. A method
// decides, per program variable, which storage a given virtual rank's
// loads and stores reach; it charges its startup work, per-context-switch
// work, and per-access work to the virtual clock; and it declares whether
// the rank state it creates can migrate between address spaces.
package core

import (
	"fmt"
	"time"

	"provirt/internal/elf"
	"provirt/internal/loader"
	"provirt/internal/machine"
	"provirt/internal/sim"
)

// Kind enumerates the privatization methods discussed in the paper.
type Kind int

const (
	// KindNone runs the unmodified program: all ranks in a process
	// share every global — the unsafe baseline of Fig. 2/3.
	KindNone Kind = iota
	// KindManual models hand-refactored code: every mutable variable
	// moved into a per-rank structure (§2.3.1).
	KindManual
	// KindPhotran models source-to-source refactoring for Fortran
	// (§2.3.2); mechanically equivalent to manual refactoring.
	KindPhotran
	// KindSwapglobals swaps the ELF Global Offset Table per rank at
	// context-switch time (§2.3.3). Statics are missed; SMP mode is
	// unsupported.
	KindSwapglobals
	// KindTLSglobals privatizes variables the programmer tagged
	// thread_local by switching the TLS segment pointer per rank
	// (§2.3.4).
	KindTLSglobals
	// KindMPCPrivatize is compiler-automated TLS tagging
	// (-fmpc-privatize, §2.3.5): every mutable variable is treated as
	// thread_local.
	KindMPCPrivatize
	// KindPIPglobals duplicates code and data segments per rank via
	// dlmopen link-map namespaces (§3.1).
	KindPIPglobals
	// KindFSglobals duplicates the binary per rank on a shared
	// filesystem and loads each copy with plain dlopen (§3.2).
	KindFSglobals
	// KindPIEglobals copies the PIE's code and data segments per rank
	// through Isomalloc, rebases pointers, and combines with
	// TLSglobals for TLS variables (§3.3).
	KindPIEglobals

	numKinds
)

func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindManual:
		return "manual"
	case KindPhotran:
		return "photran"
	case KindSwapglobals:
		return "swapglobals"
	case KindTLSglobals:
		return "tlsglobals"
	case KindMPCPrivatize:
		return "fmpc-privatize"
	case KindPIPglobals:
		return "pipglobals"
	case KindFSglobals:
		return "fsglobals"
	case KindPIEglobals:
		return "pieglobals"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind maps a method name (as accepted by the -privatize flag) to
// its Kind.
func ParseKind(s string) (Kind, error) {
	for k := KindNone; k < numKinds; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("core: unknown privatization method %q", s)
}

// Toolchain describes the compiler environment, used to model the
// compiler-specific portability restrictions of Table 1.
type Toolchain struct {
	// Name is informational ("gcc-10.2.0").
	Name string
	// SupportsTLSSegRefs reports support for
	// -mno-tls-direct-seg-refs (GCC, Clang 10+), required by
	// TLSglobals.
	SupportsTLSSegRefs bool
	// MPCPatched reports an MPC-patched compiler providing
	// -fmpc-privatize.
	MPCPatched bool
	// PIE reports support for building Position Independent
	// Executables (ubiquitous; required by the three new methods).
	PIE bool
}

// OS describes the operating system environment.
type OS struct {
	// Kind is "linux", "macos", ...
	Kind string
	// Glibc reports a GNU libc with dlmopen and dl_iterate_phdr.
	Glibc bool
	// PatchedGlibc lifts the link-map namespace limit (the patched
	// glibc PIP distributes).
	PatchedGlibc bool
	// OldOrPatchedLinker reports an ld <= 2.23 or a patched newer ld,
	// required by Swapglobals to keep GOT-relative accesses.
	OldOrPatchedLinker bool
	// SharedFS reports a shared filesystem reachable by all nodes,
	// required by FSglobals.
	SharedFS bool
}

// Bridges2Env returns toolchain/OS settings matching the paper's test
// system (GCC 10.2.0 on GNU/Linux; stock glibc; modern ld — which is why
// the authors "were unable to get Swapglobals working on this system").
func Bridges2Env() (Toolchain, OS) {
	tc := Toolchain{Name: "gcc-10.2.0", SupportsTLSSegRefs: true, MPCPatched: false, PIE: true}
	os := OS{Kind: "linux", Glibc: true, PatchedGlibc: false, OldOrPatchedLinker: false, SharedFS: true}
	return tc, os
}

// ProcessEnv is everything a Method needs about the process it is
// privatizing ranks in.
type ProcessEnv struct {
	Proc      *machine.Process
	Cost      *machine.CostModel
	Linker    *loader.Linker
	FS        *machine.SharedFS
	Toolchain Toolchain
	OS        OS
	// SMP reports whether the process hosts multiple PE scheduler
	// threads (Fig. 1's SMP mode).
	SMP bool
	// StackSize is the per-rank user-level thread stack, allocated via
	// Isomalloc.
	StackSize uint64
	// PEOfVP maps a virtual rank to its home PE's process-local index,
	// used by hierarchical local storage to build per-core cells. Nil
	// places every rank on local PE 0.
	PEOfVP func(vp int) int
}

// localPE returns the process-local PE index for a rank.
func (env *ProcessEnv) localPE(vp int) int {
	if env.PEOfVP == nil {
		return 0
	}
	return env.PEOfVP(vp)
}

// SetupResult is what a Method produces for one process.
type SetupResult struct {
	// Contexts holds one rank context per requested VP, in input
	// order.
	Contexts []*RankContext
	// Done is the virtual time at which privatization setup for this
	// process completes.
	Done sim.Time
	// SharedInstance is the base (namespace-0) program instance.
	SharedInstance *elf.Instance
	// PrivatizedWords counts 8-byte cells of privatized storage
	// materialized in the process (reported by HLS for its memory-
	// overhead claim; zero when a method does not account for it).
	PrivatizedWords uint64
}

// Method is one privatization technique.
type Method interface {
	Kind() Kind
	// Capabilities returns the method's Table 1 / Table 3 row.
	Capabilities() Capabilities
	// CheckEnv verifies the method can run in the environment at all
	// (compiler, linker, OS requirements). It is called before Setup.
	CheckEnv(env *ProcessEnv) error
	// Setup loads the program and builds one privatized context per
	// virtual rank in vps, charging all work to virtual time starting
	// at start.
	Setup(env *ProcessEnv, img *elf.Image, vps []int, start sim.Time) (*SetupResult, error)
	// SwitchExtra is the additional work performed at each user-level
	// thread context switch (e.g. updating the TLS segment pointer).
	SwitchExtra(from, to *RankContext) sim.Time
}

// New returns the Method implementing kind.
func New(kind Kind) Method {
	switch kind {
	case KindNone:
		return &noneMethod{}
	case KindManual:
		return &refactorMethod{kind: KindManual}
	case KindPhotran:
		return &refactorMethod{kind: KindPhotran}
	case KindSwapglobals:
		return &swapglobalsMethod{}
	case KindTLSglobals:
		return &tlsglobalsMethod{}
	case KindMPCPrivatize:
		return &mpcMethod{}
	case KindPIPglobals:
		return &pipglobalsMethod{}
	case KindFSglobals:
		return &fsglobalsMethod{}
	case KindPIEglobals:
		return &pieglobalsMethod{}
	default:
		panic(fmt.Sprintf("core: no such method kind %d", int(kind)))
	}
}

// loadBaseProgram performs the work every method shares: loading the
// program (and the AMPI runtime) into the process once. It returns the
// base instance and the completion time.
func loadBaseProgram(env *ProcessEnv, img *elf.Image, start sim.Time) (*loader.Handle, sim.Time, error) {
	start += env.Cost.ExecLoadBase + env.Cost.RuntimeInitBase
	h, done, err := env.Linker.Dlopen(img, img.Name, start)
	if err != nil {
		return nil, start, err
	}
	return h, done, nil
}

// tlsCopyCost is the cost of materializing one rank's TLS block from
// the image's TLS initialization template.
func tlsCopyCost(env *ProcessEnv, words int) sim.Time {
	return env.Cost.CopyTime(uint64(words) * 8)
}

// accessCost returns the per-load/store charge for a variable reached
// through one level of indirection, honoring the cost model's
// compiler-hoisting assumption (§4.3).
func accessCost(cost *machine.CostModel, indirect bool) time.Duration {
	if !indirect || cost.CompilerHoistsIndirection {
		return cost.GlobalAccessDirect
	}
	return cost.GlobalAccessIndirect
}
