// Package loader models the dynamic linker facilities the paper's
// runtime privatization methods are built on: dlopen, the glibc
// extension dlmopen with link-map namespaces, dl_iterate_phdr, and — for
// FSglobals — loading per-rank copies of the binary from a shared
// filesystem.
//
// The model reproduces the operational properties the paper depends on:
//
//   - dlmopen with LM_ID_NEWLM duplicates code and data segments per
//     namespace, but stock glibc supports only a small fixed number of
//     namespaces per process (the paper cites 12), which caps PIPglobals'
//     virtualization degree unless a patched glibc is used (§3.1);
//   - dlopen of *distinct file paths* also yields distinct segment
//     copies, which is what FSglobals exploits with POSIX-only calls
//     (§3.2);
//   - segments mapped by the linker come from the plain mmap path — the
//     runtime cannot route them through Isomalloc, so they can never
//     migrate (§3.1, §3.2);
//   - dl_iterate_phdr exposes segment locations before/after a dlopen,
//     which is how PIEglobals discovers the fresh code and data segments
//     it then copies through Isomalloc itself (§3.3).
package loader

import (
	"errors"
	"fmt"

	"provirt/internal/elf"
	"provirt/internal/machine"
	"provirt/internal/mem"
	"provirt/internal/sim"
)

// GlibcNamespaceLimit is the number of link-map namespaces stock glibc
// supports per process. The paper calls it "a seemingly arbitrary limit
// inside glibc's implementation"; PIP ships a patched glibc to raise it.
const GlibcNamespaceLimit = 12

// ShimFunctionCount is the number of MPI entry points in the
// function-pointer shim of Fig. 4 (the AMPI_FuncPtr_Transport struct);
// populating a loaded binary's pointers costs one store per entry.
const ShimFunctionCount = 128

// ErrNamespaceLimit is returned by Dlmopen when the process has
// exhausted its link-map namespaces.
var ErrNamespaceLimit = errors.New("loader: dlmopen: out of link-map namespaces (glibc limit; patched glibc required)")

// Handle is a loaded object: the instantiated image plus its mapped
// regions.
type Handle struct {
	Path       string
	Inst       *elf.Instance
	CodeRegion *mem.Region
	DataRegion *mem.Region
	Namespace  int
	// ShimPopulated reports whether the AMPI function-pointer shim in
	// this copy of the binary has been filled in (Fig. 4's
	// AMPI_FuncPtr_Unpack). Calling into MPI from a copy whose shim was
	// never populated is a crash in the real system.
	ShimPopulated bool
	// CtorAllocs counts heap allocations made by static constructors
	// when this handle was opened.
	CtorAllocs int
}

// SegmentInfo is one dl_iterate_phdr record.
type SegmentInfo struct {
	Path     string
	CodeBase uint64
	CodeSize uint64
	DataBase uint64
	DataSize uint64
}

// Linker is one process's dynamic-linking state.
type Linker struct {
	Proc *machine.Process
	Cost *machine.CostModel
	// PatchedGlibc lifts the namespace limit, modeling the patched
	// glibc the PIP project distributes.
	PatchedGlibc bool

	nextNamespace int
	byPath        map[string]*Handle
	handles       []*Handle
}

// New returns a linker for the process.
func New(proc *machine.Process, cost *machine.CostModel) *Linker {
	return &Linker{Proc: proc, Cost: cost, nextNamespace: 1, byPath: make(map[string]*Handle)}
}

// NamespacesInUse reports how many extra link-map namespaces exist.
func (l *Linker) NamespacesInUse() int { return l.nextNamespace - 1 }

// Handles returns all live handles in load order.
func (l *Linker) Handles() []*Handle { return l.handles }

// loadCost is the virtual time one load takes, excluding any filesystem
// transfer: fixed dlopen cost, relocation processing, page mapping, and
// static-constructor execution.
func (l *Linker) loadCost(img *elf.Image, dlmopen bool, ctorAllocs int) sim.Time {
	c := l.Cost
	d := c.DlopenBase
	if dlmopen {
		d += c.DlmopenExtra
	}
	d += sim.Time(img.Relocations) * c.RelocationCost
	d += c.PageMapTime(img.TotalSegmentBytes())
	d += sim.Time(ctorAllocs) * c.CtorReplayPerAlloc
	return d
}

// open maps the image into the process and runs its constructors.
func (l *Linker) open(img *elf.Image, path string, namespace int) (*Handle, error) {
	code := l.Proc.AS.Mmap(img.CodeSize, path+":code")
	data := l.Proc.AS.Mmap(img.DataSize, path+":data")
	inst, err := elf.NewInstance(img, code.Base, data.Base, namespace)
	if err != nil {
		return nil, err
	}
	n, err := inst.RunCtors(l.Proc.Malloc)
	if err != nil {
		return nil, err
	}
	h := &Handle{
		Path:       path,
		Inst:       inst,
		CodeRegion: code,
		DataRegion: data,
		Namespace:  namespace,
		CtorAllocs: n,
	}
	l.byPath[path] = h
	l.handles = append(l.handles, h)
	return h, nil
}

// Dlopen loads the object at path into the base namespace, starting at
// virtual time start; it returns the handle and the completion time.
// Opening an already-open path returns the existing handle (dlopen
// reference semantics) at negligible cost.
func (l *Linker) Dlopen(img *elf.Image, path string, start sim.Time) (*Handle, sim.Time, error) {
	if h, ok := l.byPath[path]; ok {
		return h, start + l.Cost.DlopenBase/10, nil
	}
	h, err := l.open(img, path, 0)
	if err != nil {
		return nil, start, err
	}
	return h, start + l.loadCost(img, false, h.CtorAllocs), nil
}

// Dlmopen loads the object into a fresh link-map namespace (LM_ID_NEWLM)
// with its own copies of the code and data segments. Without a patched
// glibc the namespace supply is GlibcNamespaceLimit.
func (l *Linker) Dlmopen(img *elf.Image, path string, start sim.Time) (*Handle, sim.Time, error) {
	if !l.PatchedGlibc && l.nextNamespace > GlibcNamespaceLimit {
		return nil, start, fmt.Errorf("%w (process %d has %d namespaces)",
			ErrNamespaceLimit, l.Proc.ID, l.nextNamespace-1)
	}
	ns := l.nextNamespace
	l.nextNamespace++
	h, err := l.open(img, fmt.Sprintf("%s#ns%d", path, ns), ns)
	if err != nil {
		return nil, start, err
	}
	h.Namespace = ns
	h.Inst.Namespace = ns
	return h, start + l.loadCost(img, true, h.CtorAllocs), nil
}

// DlopenFromFS loads a copy of the binary previously written to the
// shared filesystem: the read is charged against the (contended)
// filesystem, then the object is linked as a plain dlopen. This is the
// FSglobals path.
func (l *Linker) DlopenFromFS(fs *machine.SharedFS, img *elf.Image, path string, start sim.Time) (*Handle, sim.Time, error) {
	if _, ok := l.byPath[path]; ok {
		return nil, start, fmt.Errorf("loader: FS copy %q already opened in process %d; FSglobals requires one copy per rank", path, l.Proc.ID)
	}
	readDone, _, err := fs.ReadFile(start, path)
	if err != nil {
		return nil, start, err
	}
	h, err := l.open(img, path, 0)
	if err != nil {
		return nil, start, err
	}
	return h, readDone + l.loadCost(img, false, h.CtorAllocs), nil
}

// PopulateShim fills the function-pointer shim of a loaded copy
// (AMPI_FuncPtr_Unpack of Fig. 4) and returns the completion time.
func (l *Linker) PopulateShim(h *Handle, start sim.Time) sim.Time {
	h.ShimPopulated = true
	return start + sim.Time(ShimFunctionCount)*l.Cost.GlobalAccessDirect
}

// IteratePhdr returns one record per loaded object, in load order —
// the dl_iterate_phdr view PIEglobals diffs before and after a dlopen to
// find the new object's segments.
func (l *Linker) IteratePhdr() []SegmentInfo {
	out := make([]SegmentInfo, 0, len(l.handles))
	for _, h := range l.handles {
		out = append(out, SegmentInfo{
			Path:     h.Path,
			CodeBase: h.CodeRegion.Base,
			CodeSize: h.Inst.Img.CodeSize,
			DataBase: h.DataRegion.Base,
			DataSize: h.Inst.Img.DataSize,
		})
	}
	return out
}

// WriteBinaryToFS writes one rank's copy of the binary to the shared
// filesystem (the FSglobals startup write) and returns the completion
// time.
func WriteBinaryToFS(fs *machine.SharedFS, img *elf.Image, path string, start sim.Time) sim.Time {
	return fs.WriteFile(start, path, img.TotalSegmentBytes())
}
