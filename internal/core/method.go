// Package core implements the paper's primary contribution: automatic
// runtime privatization of global and static program state, so that MPI
// ranks can run as migratable user-level threads inside shared OS
// processes.
//
// Each privatization technique from the paper — the surveyed existing
// ones (§2.3) and the three new runtime methods (§3) — is one row of
// methodTable (table.go) over the synthetic ELF/PIE model in
// internal/elf: which storage each class of program variable reaches
// from a given virtual rank, what is loaded per rank at startup, what a
// context switch costs, what the method needs of its toolchain, OS and
// program, and why — if so — the rank state it creates cannot migrate
// between address spaces. One Setup (this file) turns a row into rank
// contexts, charging the work to the virtual clock.
package core

import (
	"fmt"
	"time"

	"provirt/internal/elf"
	"provirt/internal/loader"
	"provirt/internal/machine"
	"provirt/internal/mem"
	"provirt/internal/sim"
)

// Kind enumerates the privatization methods discussed in the paper. A
// Kind is the method: its methods read its row of methodTable, so one
// Kind sets up any number of worlds at once. Call them on a Valid one.
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
	// KindPIEglobalsSharedCode is PIEglobals with §6's shared code
	// pages: each rank maps the code segment instead of copying it.
	KindPIEglobalsSharedCode
	// KindPIEglobalsSharedCodeCOW also leaves the read-only part of the
	// data segment on the shared mapping, copy-on-write.
	KindPIEglobalsSharedCodeCOW

	numKinds
)

// Valid reports whether k names a method.
func (k Kind) Valid() bool { return k >= 0 && k < numKinds }

func (k Kind) String() string {
	if !k.Valid() {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return methodTable[k].name
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
// compiler-specific portability restrictions of Table 1. Its json tags
// are the scenario wire format's "toolchain" object.
type Toolchain struct {
	// SupportsTLSSegRefs reports support for
	// -mno-tls-direct-seg-refs (GCC, Clang 10+), required by
	// TLSglobals.
	SupportsTLSSegRefs bool `json:"supports_tls_seg_refs,omitempty"`
	// MPCPatched reports an MPC-patched compiler providing
	// -fmpc-privatize.
	MPCPatched bool `json:"mpc_patched,omitempty"`
	// PIE reports support for building Position Independent
	// Executables (ubiquitous; required by the three new methods).
	PIE bool `json:"pie,omitempty"`
}

// OS describes the operating system environment. Its json tags are the
// scenario wire format's "os" object.
type OS struct {
	// Kind is "linux", "macos", ...
	Kind string `json:"kind,omitempty"`
	// Glibc reports a GNU libc with dlmopen and dl_iterate_phdr.
	Glibc bool `json:"glibc,omitempty"`
	// PatchedGlibc lifts the link-map namespace limit (the patched
	// glibc PIP distributes).
	PatchedGlibc bool `json:"patched_glibc,omitempty"`
	// OldOrPatchedLinker reports an ld <= 2.23 or a patched newer ld,
	// required by Swapglobals to keep GOT-relative accesses.
	OldOrPatchedLinker bool `json:"old_or_patched_linker,omitempty"`
	// SharedFS reports a shared filesystem reachable by all nodes,
	// required by FSglobals.
	SharedFS bool `json:"shared_fs,omitempty"`
}

// Bridges2Env returns toolchain/OS settings matching the paper's test
// system (GCC 10.2.0 on GNU/Linux; stock glibc; modern ld — which is why
// the authors "were unable to get Swapglobals working on this system").
func Bridges2Env() (Toolchain, OS) {
	tc := Toolchain{SupportsTLSSegRefs: true, MPCPatched: false, PIE: true}
	os := OS{Kind: "linux", Glibc: true, PatchedGlibc: false, OldOrPatchedLinker: false, SharedFS: true}
	return tc, os
}

// ProcessEnv is everything a method needs about the process it is
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
}

// SetupResult is what a method's Setup produces for one process.
type SetupResult struct {
	// Contexts holds one rank context per requested VP, in input
	// order.
	Contexts []*RankContext
	// Done is the virtual time at which privatization setup for this
	// process completes.
	Done sim.Time
	// SharedInstance is the base (namespace-0) program instance.
	SharedInstance *elf.Instance
}

// row is the method's row of methodTable; k must be Valid.
func (k Kind) row() *methodRow { return &methodTable[k] }

// Needs returns the set of requirements the method has.
func (k Kind) Needs() Requirement { return k.row().needs }

// Migratable reports whether ranks privatized by this method can be
// rebuilt in another address space.
func (k Kind) Migratable() bool { return k.row().veto == "" }

// Unmet lists the method's requirements that a process does not meet:
// env supplies the toolchain, OS and SMP mode, ranks is how many virtual
// ranks the process hosts, and img is the program — nil skips the
// requirements on the program (NeedsOfImage). Setup refuses to run with
// any unmet; callers that want every problem at once, before a world is
// built, ask here.
func (k Kind) Unmet(env *ProcessEnv, img *elf.Image, ranks int) []Unmet {
	needs := k.row().needs
	if img == nil {
		needs &^= NeedsOfImage
	}
	at := site{tc: env.Toolchain, os: env.OS, smp: env.SMP, img: img, ranks: ranks}
	var out []Unmet
	for _, r := range requirements {
		if needs&r.need != 0 && !r.met(at) {
			out = append(out, Unmet{Need: r.need, Msg: k.String() + " " + r.msg})
		}
	}
	return out
}

// Grant returns the environment changed to supply what the method
// needs and the environment lacks, where a change of toolchain or OS can
// supply it: the old linker, the MPC compiler, and — when a process
// hosts more ranks than stock glibc has namespaces — the patched glibc.
func (k Kind) Grant(tc Toolchain, os OS, ranks int) (Toolchain, OS) {
	needs, at := k.row().needs, site{tc: tc, os: os, ranks: ranks}
	for _, r := range requirements {
		if needs&r.need != 0 && r.grant != nil && !r.met(at) {
			at = r.grant(at)
		}
	}
	return at.tc, at.os
}

// SwitchExtra is the additional work performed at each user-level
// thread context switch into to (updating the TLS segment pointer,
// swapping the GOT).
func (k Kind) SwitchExtra(to *RankContext) sim.Time {
	if to == nil {
		return 0
	}
	return to.plan.switchCost
}

// plan is what Setup works out once per process and every rank context
// of the process points at: where each variable lives and what reaching
// it costs, the templates a rank's private blocks are filled from, and
// the per-switch charge.
type plan struct {
	// cells is indexed by elf.Var.Index.
	cells []cellRef
	// tls is the TLS block's initial contents, slot by slot, frozen once
	// per process; every rank's block is a copy-on-write view of it. nil
	// when the method keeps no TLS block (empty but non-nil when it keeps
	// one and the program tagged nothing). tlsWords is its length.
	tls      *mem.SegmentBase
	tlsWords int
	// heapCells is the rank's privatized-copy block as initialised, one
	// cell per program variable, frozen once per process; every rank's
	// block is a clone of this view. nil when the method has none.
	heapCells  *mem.Segment
	switchCost sim.Time
}

// newPlan lays the row's placement out over the image's variables.
func (k Kind) newPlan(env *ProcessEnv, img *elf.Image) *plan {
	r := k.row()
	p := &plan{cells: make([]cellRef, len(img.Vars))}
	useTLS := r.tls == tlsAll || r.tls == tlsTagged && env.Toolchain.SupportsTLSSegRefs
	var heapInit []uint64
	if r.rest == storeHeapCell && len(img.Vars) > 0 {
		heapInit = make([]uint64, len(img.Vars))
	}
	for _, v := range img.Vars {
		ref := cellRef{kind: r.rest, slot: v.Index}
		switch {
		case !v.Mutable(), r.gotOnly && v.Class == elf.ClassStatic:
			ref.kind = storeShared
		case useTLS && (r.tls == tlsAll || v.Tagged):
			ref.kind, ref.slot = storeTLS, p.tlsWords
			p.tlsWords++
		}
		// A TLS slot is reached through the segment pointer and a
		// privatized copy through the GOT or the state struct's base; the
		// shared and the duplicated segments are addressed PC-relative.
		ref.cost = accessCost(env.Cost, ref.kind == storeTLS || ref.kind == storeHeapCell)
		p.cells[v.Index] = ref
		if heapInit != nil {
			heapInit[v.Index] = v.Init
		}
	}
	if heapInit != nil {
		p.heapCells = mem.AdoptSegment(heapInit).View()
	}
	if useTLS {
		init := make([]uint64, p.tlsWords)
		for _, v := range img.Vars {
			if ref := p.cells[v.Index]; ref.kind == storeTLS {
				init[ref.slot] = v.Init
			}
		}
		p.tls = mem.AdoptSegment(init)
	}
	switch {
	case r.charge == chargeGOT:
		p.switchCost = env.Cost.GOTSwapCost
	case r.charge == chargeTLS && useTLS:
		p.switchCost = env.Cost.TLSSwitchCost
	}
	return p
}

// Setup loads the program into the process and builds one privatized
// context per virtual rank in vps, charging all work to virtual time
// starting at start. It refuses a process that does not meet the
// method's requirements.
func (k Kind) Setup(env *ProcessEnv, img *elf.Image, vps []int, start sim.Time) (*SetupResult, error) {
	if unmet := k.Unmet(env, img, len(vps)); len(unmet) > 0 {
		return nil, unmet[0]
	}
	r := k.row()
	env.Linker.PatchedGlibc = env.OS.PatchedGlibc

	// The work every method shares: loading the program (and the AMPI
	// runtime) into the process once. PIEglobals finds the segments it
	// will copy the way the real runtime must, by diffing
	// dl_iterate_phdr around the dlopen.
	var before []loader.SegmentInfo
	if r.load == loadDuplicate {
		before = env.Linker.IteratePhdr()
	}
	h, done, err := env.Linker.Dlopen(img, img.Name, start+env.Cost.ExecLoadBase+env.Cost.RuntimeInitBase)
	if err != nil {
		return nil, err
	}
	var tmpl *pieTemplate
	if r.load == loadDuplicate {
		seg, err := diffPhdr(before, env.Linker.IteratePhdr(), img.Name)
		if err != nil {
			return nil, err
		}
		if seg.CodeBase != h.Inst.CodeBase || seg.DataBase != h.Inst.DataBase {
			return nil, fmt.Errorf("core: %s: dl_iterate_phdr diff located segments at %#x/%#x, loader reports %#x/%#x",
				k, seg.CodeBase, seg.DataBase, h.Inst.CodeBase, h.Inst.DataBase)
		}
		tmpl = newPIETemplate(h.Inst)
	}

	p := k.newPlan(env, img)
	tlsCopy := env.Cost.CopyTime(uint64(p.tlsWords) * 8)
	cellCopy := env.Cost.CopyTime(uint64(p.heapCells.Len()) * 8)
	if r.charge == chargeGOT {
		// Per-rank GOT construction: one relocation-sized fixup per entry.
		cellCopy += sim.Time(len(img.Vars)+len(img.Funcs)) * env.Cost.RelocationCost
	}
	res := &SetupResult{SharedInstance: h.Inst, Contexts: make([]*RankContext, 0, len(vps))}
	for _, vp := range vps {
		c, err := newContext(k, p, env, img, h.Inst, vp)
		if err != nil {
			return nil, err
		}
		var copyH *loader.Handle
		switch r.load {
		case loadDlmopen:
			copyH, done, err = env.Linker.Dlmopen(img, img.Name, done)
		case loadFSCopy:
			path := fmt.Sprintf("/scratch/fsglobals/%s.vp%d", img.Name, vp)
			copyH, done, err = env.Linker.DlopenFromFS(env.FS, img, path, loader.WriteBinaryToFS(env.FS, img, path, done))
		case loadDuplicate:
			var cost sim.Time
			c.Private, cost, err = duplicateInstance(env, tmpl, c.Heap, r)
			done += cost
		}
		if err != nil {
			return nil, fmt.Errorf("core: %s: rank %d: %w", k, vp, err)
		}
		if copyH != nil {
			done = env.Linker.PopulateShim(copyH, done)
			c.Private = copyH.Inst
		}
		if p.heapCells != nil {
			if c.heapCells, err = c.Heap.AllocSegment(p.heapCells, r.cellLabel); err != nil {
				return nil, err
			}
		}
		if p.tls != nil {
			c.TLS = p.tls.View()
		}
		done += cellCopy + tlsCopy
		res.Contexts = append(res.Contexts, c)
	}
	res.Done = done
	return res, nil
}

// diffPhdr finds the phdr record present in after but not before —
// how the PIEglobals loader locates the fresh object's segments.
func diffPhdr(before, after []loader.SegmentInfo, want string) (loader.SegmentInfo, error) {
	seen := make(map[uint64]bool, len(before))
	for _, s := range before {
		seen[s.CodeBase] = true
	}
	for _, s := range after {
		if !seen[s.CodeBase] {
			return s, nil
		}
	}
	return loader.SegmentInfo{}, fmt.Errorf("core: pieglobals: dl_iterate_phdr diff found no new object for %q", want)
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
