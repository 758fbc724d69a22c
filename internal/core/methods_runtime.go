package core

import (
	"fmt"

	"provirt/internal/elf"
	"provirt/internal/loader"
	"provirt/internal/sim"
)

// ---------------------------------------------------------------------
// PIPglobals (§3.1): the program is built as a PIE and dlmopen'd once
// per virtual rank with a fresh link-map namespace, duplicating its
// code and data segments. Global accesses are PC-relative within each
// copy, so no work happens at context-switch time and no per-access
// indirection exists. Limits: stock glibc provides only 12 namespaces
// per process, and the segment copies are mapped by ld-linux.so's own
// mmap calls — the runtime cannot route them through Isomalloc, so
// ranks can never migrate.
// ---------------------------------------------------------------------

type pipglobalsMethod struct{}

func (*pipglobalsMethod) Kind() Kind                 { return KindPIPglobals }
func (*pipglobalsMethod) Capabilities() Capabilities { return CapabilitiesOf(KindPIPglobals) }

func (m *pipglobalsMethod) CheckEnv(env *ProcessEnv) error {
	if env.OS.Kind != "linux" || !env.OS.Glibc {
		return fmt.Errorf("core: pipglobals requires GNU/Linux: dlmopen is a non-POSIX glibc extension")
	}
	if !env.Toolchain.PIE {
		return fmt.Errorf("core: pipglobals requires building the program as a Position Independent Executable")
	}
	return nil
}

func (m *pipglobalsMethod) SwitchExtra(from, to *RankContext) sim.Time { return 0 }

func (m *pipglobalsMethod) Setup(env *ProcessEnv, img *elf.Image, vps []int, start sim.Time) (*SetupResult, error) {
	env.Linker.PatchedGlibc = env.OS.PatchedGlibc
	h, done, err := loadBaseProgram(env, img, start)
	if err != nil {
		return nil, err
	}
	res := &SetupResult{SharedInstance: h.Inst}
	direct := accessCost(env.Cost, false)
	for _, vp := range vps {
		// One dlmopen per virtual rank; hits ErrNamespaceLimit past 12
		// ranks/process on stock glibc.
		copyH, copyDone, err := env.Linker.Dlmopen(img, img.Name, done)
		if err != nil {
			return nil, fmt.Errorf("core: pipglobals: rank %d: %w", vp, err)
		}
		done = env.Linker.PopulateShim(copyH, copyDone)
		c, err := newContext(m, env, img, h.Inst, vp)
		if err != nil {
			return nil, err
		}
		c.Private = copyH.Inst
		c.Migratable = false
		c.MigrationVeto = "pipglobals segments are mapped by ld-linux.so's internal mmap calls, which cannot be intercepted and allocated via Isomalloc (§3.1)"
		c.resolveAll(env, func(v *elf.Var) cellRef {
			return cellRef{kind: storePrivSeg, cost: direct}
		})
		res.Contexts = append(res.Contexts, c)
	}
	res.Done = done
	return res, nil
}

// ---------------------------------------------------------------------
// FSglobals (§3.2): like PIPglobals, but instead of dlmopen namespaces
// the runtime writes one copy of the PIE binary per rank to a shared
// filesystem and opens each with POSIX dlopen — distinct paths yield
// distinct segment copies. Portable beyond glibc and free of the
// namespace limit, at the price of startup I/O that contends on the
// shared filesystem and scales with rank count; shared-object
// dependencies are unsupported; migration is impossible for the same
// reason as PIPglobals.
// ---------------------------------------------------------------------

type fsglobalsMethod struct{}

func (*fsglobalsMethod) Kind() Kind                 { return KindFSglobals }
func (*fsglobalsMethod) Capabilities() Capabilities { return CapabilitiesOf(KindFSglobals) }

func (m *fsglobalsMethod) CheckEnv(env *ProcessEnv) error {
	if !env.OS.SharedFS {
		return fmt.Errorf("core: fsglobals requires a shared filesystem visible to all nodes")
	}
	if !env.Toolchain.PIE {
		return fmt.Errorf("core: fsglobals requires building the program as a Position Independent Executable")
	}
	return nil
}

func (m *fsglobalsMethod) SwitchExtra(from, to *RankContext) sim.Time { return 0 }

func (m *fsglobalsMethod) Setup(env *ProcessEnv, img *elf.Image, vps []int, start sim.Time) (*SetupResult, error) {
	if img.SharedDeps > 0 {
		return nil, fmt.Errorf("core: fsglobals: %q has %d shared-object dependencies; shared objects are not supported (iterating and copying every dependency per rank is unimplemented, §3.2)",
			img.Name, img.SharedDeps)
	}
	h, done, err := loadBaseProgram(env, img, start)
	if err != nil {
		return nil, err
	}
	res := &SetupResult{SharedInstance: h.Inst}
	direct := accessCost(env.Cost, false)
	for _, vp := range vps {
		path := fmt.Sprintf("/scratch/fsglobals/%s.vp%d", img.Name, vp)
		// Write this rank's binary copy, then dlopen it back. Both
		// transfers serialize on the shared filesystem, which is what
		// makes FSglobals startup degrade with scale.
		writeDone := loader.WriteBinaryToFS(env.FS, img, path, done)
		copyH, copyDone, err := env.Linker.DlopenFromFS(env.FS, img, path, writeDone)
		if err != nil {
			return nil, fmt.Errorf("core: fsglobals: rank %d: %w", vp, err)
		}
		done = env.Linker.PopulateShim(copyH, copyDone)
		c, err := newContext(m, env, img, h.Inst, vp)
		if err != nil {
			return nil, err
		}
		c.Private = copyH.Inst
		c.Migratable = false
		c.MigrationVeto = "fsglobals segments are mapped by the system dlopen, which cannot be intercepted and allocated via Isomalloc (§3.2)"
		c.resolveAll(env, func(v *elf.Var) cellRef {
			return cellRef{kind: storePrivSeg, cost: direct}
		})
		res.Contexts = append(res.Contexts, c)
	}
	res.Done = done
	return res, nil
}

// ---------------------------------------------------------------------
// PIEglobals (§3.3): the most fully automated method, and the only new
// one supporting migration. The PIE shared object is dlopen'd ONCE per
// process (a per-rank dlopen crashes glibc under SMP mode's pthreads);
// dl_iterate_phdr before and after the dlopen locates its code and
// data segments; then for each rank the runtime copies both segments
// through Isomalloc, scans the data-segment copy for values that look
// like pointers into the original segments and rebases them (GOT
// entries and C++ vtable/global-object pointers included), replays the
// heap allocations logged from static constructors, and combines with
// TLSglobals for thread-local variables. Because every byte of the
// rank's code and data now lives in Isomalloc, the rank can migrate —
// at the price of moving the code segment with it (Fig. 8).
// ---------------------------------------------------------------------

// PIEOptions enables the paper's §6 future-work optimizations on
// PIEglobals.
type PIEOptions struct {
	// ShareCodePages maps each rank's code segment from a single
	// read-only descriptor instead of copying it: startup skips the
	// code memcpy, the per-rank resident footprint drops by the code
	// size, and migrations transfer only metadata for the code block
	// (the destination remaps it). This is the "mapping the code
	// segments into virtual memory from a single file descriptor using
	// mmap" plus "only migrate segments of code that differ across
	// ranks" plan of §6; with no self-modifying code no segment ever
	// differs, so nothing is transferred.
	ShareCodePages bool
	// ShareROData extends the single-descriptor mapping to the read-only
	// portion of the data segment (const variable cells and declared
	// .rodata-like bulk, per elf.Layout.ROBytes): those bytes stay on
	// shared pages with copy-on-write semantics, so startup skips their
	// memcpy, the per-rank resident footprint shrinks to the writable
	// delta plus handles, and migrations remap them instead of moving
	// them. Requires ShareCodePages (same descriptor machinery).
	ShareROData bool
}

// NewPIEglobals returns PIEglobals with explicit future-work options;
// New(KindPIEglobals) returns the paper's evaluated configuration
// (everything copied).
func NewPIEglobals(opts PIEOptions) Method {
	return &pieglobalsMethod{opts: opts}
}

type pieglobalsMethod struct {
	opts PIEOptions
}

func (*pieglobalsMethod) Kind() Kind                 { return KindPIEglobals }
func (*pieglobalsMethod) Capabilities() Capabilities { return CapabilitiesOf(KindPIEglobals) }

func (m *pieglobalsMethod) CheckEnv(env *ProcessEnv) error {
	if env.OS.Kind != "linux" || !env.OS.Glibc {
		return fmt.Errorf("core: pieglobals requires GNU/Linux: dl_iterate_phdr has shipped in stable glibc since 2005 but is not POSIX")
	}
	if !env.Toolchain.PIE {
		return fmt.Errorf("core: pieglobals requires building the program as a Position Independent Executable (-pieglobals toolchain option)")
	}
	return nil
}

func (m *pieglobalsMethod) SwitchExtra(from, to *RankContext) sim.Time {
	// PIEglobals implies TLSglobals where supported, so it pays the
	// TLS segment pointer update at every switch (§4.2).
	if to == nil || to.TLS == nil {
		return 0
	}
	return to.costModel.TLSSwitchCost
}

func (m *pieglobalsMethod) Setup(env *ProcessEnv, img *elf.Image, vps []int, start sim.Time) (*SetupResult, error) {
	before := env.Linker.IteratePhdr()
	h, done, err := loadBaseProgram(env, img, start)
	if err != nil {
		return nil, err
	}
	after := env.Linker.IteratePhdr()
	seg, err := diffPhdr(before, after, img.Name)
	if err != nil {
		return nil, err
	}
	shared := h.Inst
	if seg.CodeBase != shared.CodeBase || seg.DataBase != shared.DataBase {
		return nil, fmt.Errorf("core: pieglobals: dl_iterate_phdr diff located segments at %#x/%#x, loader reports %#x/%#x",
			seg.CodeBase, seg.DataBase, shared.CodeBase, shared.DataBase)
	}

	res := &SetupResult{SharedInstance: shared}
	useTLS := env.Toolchain.SupportsTLSSegRefs
	direct := accessCost(env.Cost, false)
	tlsCost := accessCost(env.Cost, true)

	// TLS slot layout shared by all ranks (tagged variables only; the
	// remaining mutable state is privatized by segment duplication).
	slots := make(map[int]int)
	if useTLS {
		for _, v := range img.Vars {
			if v.Mutable() && v.Tagged {
				slots[v.Index] = len(slots)
			}
		}
	}

	tmpl := newPIETemplate(shared)
	for _, vp := range vps {
		c, err := newContext(m, env, img, shared, vp)
		if err != nil {
			return nil, err
		}
		priv, cost, err := duplicateInstance(env, tmpl, c.Heap, m.opts)
		if err != nil {
			return nil, fmt.Errorf("core: pieglobals: rank %d: %w", vp, err)
		}
		done += cost
		c.Private = priv
		if useTLS {
			c.TLS = make([]uint64, len(slots))
			for idx, slot := range slots {
				c.TLS[slot] = img.Vars[idx].Init
				c.tlsSlot[idx] = slot
			}
			done += tlsCopyCost(env, len(slots))
		}
		c.Migratable = true
		c.resolveAll(env, func(v *elf.Var) cellRef {
			if slot, ok := slots[v.Index]; ok {
				return cellRef{kind: storeTLS, slot: slot, cost: tlsCost}
			}
			return cellRef{kind: storePrivSeg, cost: direct}
		})
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
