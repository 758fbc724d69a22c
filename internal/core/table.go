package core

import (
	"fmt"

	"provirt/internal/elf"
	"provirt/internal/loader"
)

// Capabilities is a method's row in the paper's Table 1 / Table 3:
// DisplayName is the row label, the other four the verbatim cell texts.
type Capabilities struct {
	DisplayName      string
	Automation       string
	Portability      string
	SMPSupport       string
	MigrationSupport string
}

// Requirement is one thing a method needs of the toolchain, the OS, the
// machine shape or the program before it can privatize anything. A
// method's needs are a set of them.
type Requirement uint16

const (
	// NeedOldLinker: ld <= 2.23 or a patched newer ld. Newer linkers
	// optimize out the GOT pointer reference at each global access.
	NeedOldLinker Requirement = 1 << iota
	// NeedMPCCompiler: the Intel compiler or an MPC-patched GCC.
	NeedMPCCompiler
	// NeedTLSSegRefs: -mno-tls-direct-seg-refs (GCC, Clang 10+).
	NeedTLSSegRefs
	// NeedSharedFS: a filesystem every node can reach.
	NeedSharedFS
	// NeedGlibc: GNU/Linux — dlmopen and dl_iterate_phdr are glibc
	// extensions, not POSIX.
	NeedGlibc
	// NeedPIE: the program built as a Position Independent Executable.
	NeedPIE
	// NeedNamespaces: one link-map namespace per rank in a process, which
	// past loader.GlibcNamespaceLimit takes the patched glibc.
	NeedNamespaces
	// NeedNoSMP: one PE per process — only one GOT can be active in an OS
	// process.
	NeedNoSMP
	// NeedFortran: the refactoring tool rewrites Fortran only.
	NeedFortran
	// NeedNoSharedDeps: copying every shared-object dependency per rank
	// is unimplemented (§3.2).
	NeedNoSharedDeps

	// NeedsOfImage are the requirements on the program rather than on
	// where it runs; Unmet skips them when it is given no image.
	NeedsOfImage = NeedFortran | NeedNoSharedDeps
)

// site is what a method's requirements are checked against: one
// process's environment, the program, and how many ranks the process
// hosts. It is all values, so checking allocates nothing.
type site struct {
	tc    Toolchain
	os    OS
	smp   bool
	img   *elf.Image
	ranks int
}

// requirements says, once, what each Requirement means: when a site
// meets it, what to tell the user when it does not, and — for the three
// the paper's own test system lacked — the change to an environment
// that supplies it (see Kind.Grant).
var requirements = []struct {
	need  Requirement
	met   func(s site) bool
	grant func(s site) site
	msg   string
}{
	{NeedOldLinker,
		func(s site) bool { return s.os.OldOrPatchedLinker },
		func(s site) site { s.os.OldOrPatchedLinker = true; return s },
		"needs an old or patched linker (ld <= 2.23): newer linkers optimize out the GOT pointer reference at each global access"},
	{NeedMPCCompiler,
		func(s site) bool { return s.tc.MPCPatched },
		func(s site) site { s.tc.MPCPatched = true; return s },
		"needs the Intel compiler or an MPC-patched compiler"},
	{NeedTLSSegRefs,
		func(s site) bool { return s.tc.SupportsTLSSegRefs },
		nil,
		"needs a compiler supporting -mno-tls-direct-seg-refs (GCC or Clang 10+)"},
	{NeedSharedFS,
		func(s site) bool { return s.os.SharedFS },
		nil,
		"needs a shared filesystem visible to all nodes"},
	{NeedGlibc,
		func(s site) bool { return s.os.Kind == "linux" && s.os.Glibc },
		nil,
		"needs GNU/Linux: dlmopen and dl_iterate_phdr are glibc extensions, not POSIX"},
	{NeedPIE,
		func(s site) bool { return s.tc.PIE },
		nil,
		"needs the program built as a Position Independent Executable"},
	{NeedNamespaces,
		func(s site) bool {
			return s.os.PatchedGlibc || s.ranks <= loader.GlibcNamespaceLimit
		},
		func(s site) site { s.os.PatchedGlibc = true; return s },
		fmt.Sprintf("needs the patched glibc past %d ranks in one process: stock glibc has that many link-map namespaces", loader.GlibcNamespaceLimit)},
	{NeedNoSMP,
		func(s site) bool { return !s.smp },
		nil,
		"does not support SMP mode: only one GOT can be active per OS process"},
	{NeedFortran,
		func(s site) bool { return s.img.Language == "fortran" },
		nil,
		"refactoring applies only to Fortran codes"},
	{NeedNoSharedDeps,
		func(s site) bool { return s.img.SharedDeps == 0 },
		nil,
		"does not support shared-object dependencies: copying every dependency per rank is unimplemented (§3.2)"},
}

// Unmet is a requirement a method has that its site does not meet.
type Unmet struct {
	Need Requirement
	// Msg names the method and what it is missing.
	Msg string
}

func (u Unmet) Error() string { return "core: " + u.Msg }

// tlsScope says which mutable variables a method keeps in the rank's
// thread-local storage block.
type tlsScope int

const (
	tlsNone   tlsScope = iota
	tlsTagged          // the ones the programmer tagged thread_local
	tlsAll             // every one: the compiler tags for the programmer
)

// loadStep is what a method loads per rank, after the one load of the
// program every process does.
type loadStep int

const (
	loadNone loadStep = iota
	// loadDlmopen opens the program again in a fresh link-map namespace.
	loadDlmopen
	// loadFSCopy writes a copy of the binary to the shared filesystem
	// and dlopens it back; both transfers serialize on the filesystem,
	// which is why startup degrades with scale.
	loadFSCopy
	// loadDuplicate copies the loaded segments through Isomalloc and
	// rebases the pointers in the copy (see duplicateInstance).
	loadDuplicate
)

// switchCharge is the work a method adds to each context switch.
type switchCharge int

const (
	chargeNone switchCharge = iota
	chargeGOT               // swap the Global Offset Table
	chargeTLS               // update the TLS segment pointer
)

// methodRow is everything that makes a privatization method that
// method: its Table 3 cells, what it needs, where it puts each class of
// variable, what it does per rank at startup and per context switch, and
// whether the result can leave the process.
type methodRow struct {
	name string
	Capabilities
	needs Requirement

	// Placement. Read-only variables always stay in the shared instance.
	// A mutable variable goes to the rank's TLS block if tls covers it —
	// and, for tlsTagged, the toolchain can address one — else to rest.
	// gotOnly keeps statics shared whatever rest says: they have no GOT
	// entry, so the swap never redirects them, and the bug is preserved,
	// not diagnosed — exactly the real method's behaviour.
	tls     tlsScope
	rest    storageKind
	gotOnly bool
	// cellLabel names the rank's heap block when rest is storeHeapCell.
	cellLabel string

	load loadStep
	// shareCode maps the rank's code segment from one read-only
	// descriptor instead of copying it, so the code adds nothing to the
	// rank's footprint or a migration's payload; shareRO also leaves the
	// data segment's read-only part (elf.Layout.ROBytes) on a shared
	// copy-on-write mapping (§6 future work, under loadDuplicate).
	shareCode, shareRO bool
	charge             switchCharge
	// veto is why a rank's state cannot be rebuilt in another address
	// space; empty when it can.
	veto string
}

// The program is dlopen'd once per process — a per-rank dlopen
// crashes glibc under SMP mode's pthreads — and the runtime copies its
// segments per rank itself, through Isomalloc, so the rank can migrate,
// at the price of moving its code with it (§3.3, Fig. 8). Combines with
// TLSglobals where the toolchain supports it (§4.2).
var pieglobals = methodRow{
	name:         "pieglobals",
	Capabilities: Capabilities{"PIEglobals", "Good", "Implemented w/ GNU libc extension", "Yes", "Yes"},
	needs:        NeedGlibc | NeedPIE,
	tls:          tlsTagged,
	rest:         storePrivSeg,
	load:         loadDuplicate,
	charge:       chargeTLS,
}

// sharing is the row named name, sharing its code and, if ro, its RO data.
func (r methodRow) sharing(name string, ro bool) methodRow {
	r.name, r.DisplayName = name, name
	r.shareCode, r.shareRO = true, ro
	return r
}

// methodTable holds each method's row. Cell strings match Table 3 of
// the paper.
var methodTable = [numKinds]methodRow{
	// The unsafe baseline of Fig. 2/3: every rank's accesses reach the
	// one process-shared data segment.
	KindNone: {
		name:         "none",
		Capabilities: Capabilities{"none (unsafe)", "n/a", "n/a", "Yes", "Yes"},
		rest:         storeShared,
	},
	// Every mutable variable encapsulated in a per-rank structure on the
	// rank's heap and passed to the functions that use it (§2.3.1);
	// compilers keep the base in a register, so an access is one
	// indirection at most.
	KindManual: {
		name:         "manual",
		Capabilities: Capabilities{"Manual refactoring", "Poor", "Good", "Yes", "Yes"},
		rest:         storeHeapCell,
		cellLabel:    "refactored-state",
	},
	// The same rewrite, automated for Fortran (§2.3.2).
	KindPhotran: {
		name:         "photran",
		Capabilities: Capabilities{"Photran", "Fortran-specific", "Good", "Yes", "Yes"},
		needs:        NeedFortran,
		rest:         storeHeapCell,
		cellLabel:    "refactored-state",
	},
	// A private copy of every GOT-reachable variable and a per-rank GOT,
	// swapped at each context switch (§2.3.3).
	KindSwapglobals: {
		name:         "swapglobals",
		Capabilities: Capabilities{"Swapglobals", "No static vars", "Linker-specific", "No", "Yes"},
		needs:        NeedOldLinker | NeedNoSMP,
		rest:         storeHeapCell,
		gotOnly:      true,
		cellLabel:    "swapglobals-copies",
		charge:       chargeGOT,
	},
	// Tagged variables in a per-rank TLS block whose segment pointer the
	// runtime switches (§2.3.4); the untagged ones stay shared, which is
	// what makes automation "Mediocre".
	KindTLSglobals: {
		name:         "tlsglobals",
		Capabilities: Capabilities{"TLSglobals", "Mediocre", "Compiler-specific", "Yes", "Yes"},
		needs:        NeedTLSSegRefs,
		tls:          tlsTagged,
		rest:         storeShared,
		charge:       chargeTLS,
	},
	// TLSglobals with the compiler doing the tagging (§2.3.5).
	KindMPCPrivatize: {
		name:         "fmpc-privatize",
		Capabilities: Capabilities{"-fmpc-privatize", "Good", "Compiler-specific", "Yes", "Not implemented, but possible"},
		needs:        NeedMPCCompiler,
		tls:          tlsAll,
		charge:       chargeTLS,
		veto:         "migration is not implemented for -fmpc-privatize (Table 1)",
	},
	// One dlmopen per rank duplicates code and data (§3.1). Accesses are
	// PC-relative within each copy: no switch work, no indirection.
	KindPIPglobals: {
		name:         "pipglobals",
		Capabilities: Capabilities{"PIPglobals", "Good", "Requires GNU libc extension", "Limited w/o patched glibc", "No"},
		needs:        NeedGlibc | NeedPIE | NeedNamespaces,
		rest:         storePrivSeg,
		load:         loadDlmopen,
		veto:         "pipglobals segments are mapped by ld-linux.so's internal mmap calls, which cannot be intercepted and allocated via Isomalloc (§3.1)",
	},
	// The same duplication with POSIX calls only: distinct paths on a
	// shared filesystem yield distinct segment copies (§3.2).
	KindFSglobals: {
		name:         "fsglobals",
		Capabilities: Capabilities{"FSglobals", "Good", "Shared file system needed", "Yes", "No"},
		needs:        NeedSharedFS | NeedPIE | NeedNoSharedDeps,
		rest:         storePrivSeg,
		load:         loadFSCopy,
		veto:         "fsglobals segments are mapped by the system dlopen, which cannot be intercepted and allocated via Isomalloc (§3.2)",
	},
	KindPIEglobals: pieglobals,
	// §6's future work, for the memory experiment; in neither Table 1 nor 3.
	KindPIEglobalsSharedCode:    pieglobals.sharing("pieglobals+sharedcode", false),
	KindPIEglobalsSharedCodeCOW: pieglobals.sharing("pieglobals+sharedcode+cow", true),
}

// CapabilitiesOf returns the Table 3 row for a method kind, or the zero
// Capabilities when kind names no method.
func CapabilitiesOf(k Kind) Capabilities {
	if !k.Valid() {
		return Capabilities{}
	}
	return methodTable[k].Capabilities
}

// Table3Order lists the methods in the paper's Table 3 row order.
func Table3Order() []Kind {
	return []Kind{
		KindManual, KindPhotran, KindSwapglobals, KindTLSglobals,
		KindMPCPrivatize, KindPIPglobals, KindFSglobals, KindPIEglobals,
	}
}

// Table1Order lists the methods in the paper's Table 1 row order (the
// pre-existing techniques only).
func Table1Order() []Kind {
	return []Kind{
		KindManual, KindPhotran, KindSwapglobals, KindTLSglobals,
		KindMPCPrivatize, KindPIPglobals,
	}
}
