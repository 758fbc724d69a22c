package core

import (
	"fmt"

	"provirt/internal/elf"
	"provirt/internal/sim"
)

// ---------------------------------------------------------------------
// None: the unsafe baseline. Every rank's accesses reach the single
// process-shared data segment, reproducing the bug of Fig. 2/3.
// ---------------------------------------------------------------------

type noneMethod struct{}

func (*noneMethod) Kind() Kind                 { return KindNone }
func (*noneMethod) Capabilities() Capabilities { return CapabilitiesOf(KindNone) }
func (*noneMethod) CheckEnv(*ProcessEnv) error { return nil }

func (m *noneMethod) SwitchExtra(from, to *RankContext) sim.Time { return 0 }

func (m *noneMethod) Setup(env *ProcessEnv, img *elf.Image, vps []int, start sim.Time) (*SetupResult, error) {
	h, done, err := loadBaseProgram(env, img, start)
	if err != nil {
		return nil, err
	}
	res := &SetupResult{SharedInstance: h.Inst, Done: done}
	direct := accessCost(env.Cost, false)
	for _, vp := range vps {
		c, err := newContext(m, env, img, h.Inst, vp)
		if err != nil {
			return nil, err
		}
		c.Migratable = true
		c.resolveAll(env, func(v *elf.Var) cellRef {
			return cellRef{kind: storeShared, cost: direct}
		})
		res.Contexts = append(res.Contexts, c)
	}
	return res, nil
}

// ---------------------------------------------------------------------
// Manual refactoring and Photran source-to-source refactoring: every
// mutable variable is encapsulated in a per-rank structure allocated on
// the rank's (migratable) heap and passed to all referencing functions
// (§2.3.1, §2.3.2). The two differ only in applicability: Photran
// automates the rewrite for Fortran codes.
// ---------------------------------------------------------------------

type refactorMethod struct {
	kind Kind
}

func (m *refactorMethod) Kind() Kind                 { return m.kind }
func (m *refactorMethod) Capabilities() Capabilities { return CapabilitiesOf(m.kind) }

func (m *refactorMethod) CheckEnv(env *ProcessEnv) error { return nil }

func (m *refactorMethod) checkImage(img *elf.Image) error {
	if m.kind == KindPhotran && img.Language != "fortran" {
		return fmt.Errorf("core: photran refactoring applies only to Fortran codes; %q is %s",
			img.Name, img.Language)
	}
	return nil
}

func (m *refactorMethod) SwitchExtra(from, to *RankContext) sim.Time { return 0 }

func (m *refactorMethod) Setup(env *ProcessEnv, img *elf.Image, vps []int, start sim.Time) (*SetupResult, error) {
	if err := m.checkImage(img); err != nil {
		return nil, err
	}
	h, done, err := loadBaseProgram(env, img, start)
	if err != nil {
		return nil, err
	}
	res := &SetupResult{SharedInstance: h.Inst}
	// The encapsulated state struct is addressed through a pointer
	// parameter; compilers keep the base in a register, so accesses
	// charge as one indirection at most.
	priv := accessCost(env.Cost, true)
	words := uint64(len(img.Vars))
	for _, vp := range vps {
		c, err := newContext(m, env, img, h.Inst, vp)
		if err != nil {
			return nil, err
		}
		if words > 0 {
			blk, err := c.Heap.Alloc(words*8, "refactored-state")
			if err != nil {
				return nil, err
			}
			for _, v := range img.Vars {
				blk.Words[v.Index] = v.Init
			}
			c.heapCells = blk
			done += env.Cost.CopyTime(words * 8)
		}
		c.Migratable = true
		c.resolveAll(env, func(v *elf.Var) cellRef {
			return cellRef{kind: storeHeapCell, slot: v.Index, cost: priv}
		})
		res.Contexts = append(res.Contexts, c)
	}
	res.Done = done
	return res, nil
}

// ---------------------------------------------------------------------
// Swapglobals: the runtime gives each rank a private copy of every
// GOT-reachable (external-linkage) variable and swaps the Global Offset
// Table at each context switch (§2.3.3). Static variables have no GOT
// entry and stay shared — the method's defining gap. Only one GOT can
// be active per process, so SMP mode is unsupported, and the technique
// requires an old or patched linker that preserves GOT-indirect
// accesses.
// ---------------------------------------------------------------------

type swapglobalsMethod struct{}

func (*swapglobalsMethod) Kind() Kind                 { return KindSwapglobals }
func (*swapglobalsMethod) Capabilities() Capabilities { return CapabilitiesOf(KindSwapglobals) }

func (m *swapglobalsMethod) CheckEnv(env *ProcessEnv) error {
	if !env.OS.OldOrPatchedLinker {
		return fmt.Errorf("core: swapglobals requires ld <= 2.23 or a patched linker: newer linkers optimize out the GOT pointer reference at each global access")
	}
	if env.SMP {
		return fmt.Errorf("core: swapglobals does not support SMP mode: only one GOT can be active per OS process")
	}
	return nil
}

func (m *swapglobalsMethod) SwitchExtra(from, to *RankContext) sim.Time {
	if to == nil || to.Method.Kind() != KindSwapglobals {
		return 0
	}
	return to.costModel.GOTSwapCost
}

func (m *swapglobalsMethod) Setup(env *ProcessEnv, img *elf.Image, vps []int, start sim.Time) (*SetupResult, error) {
	h, done, err := loadBaseProgram(env, img, start)
	if err != nil {
		return nil, err
	}
	res := &SetupResult{SharedInstance: h.Inst}
	direct := accessCost(env.Cost, false)
	got := accessCost(env.Cost, true)
	words := uint64(len(img.Vars))
	for _, vp := range vps {
		c, err := newContext(m, env, img, h.Inst, vp)
		if err != nil {
			return nil, err
		}
		blk, err := c.Heap.Alloc(words*8, "swapglobals-copies")
		if err != nil {
			return nil, err
		}
		for _, v := range img.Vars {
			blk.Words[v.Index] = v.Init
		}
		c.heapCells = blk
		// Per-rank GOT construction: one relocation-sized fixup per
		// entry plus the copy of initial values.
		done += env.Cost.CopyTime(words*8) +
			sim.Time(len(img.Vars)+len(img.Funcs))*env.Cost.RelocationCost
		c.Migratable = true
		c.resolveAll(env, func(v *elf.Var) cellRef {
			if v.Class == elf.ClassStatic {
				// Not in the GOT: the access bypasses the swap and
				// reaches shared storage. The bug is preserved, not
				// diagnosed — exactly the real method's behaviour.
				return cellRef{kind: storeShared, cost: direct}
			}
			return cellRef{kind: storeHeapCell, slot: v.Index, cost: got}
		})
		res.Contexts = append(res.Contexts, c)
	}
	res.Done = done
	return res, nil
}

// ---------------------------------------------------------------------
// TLSglobals: variables the programmer tagged thread_local live in a
// per-rank TLS block; the runtime switches the TLS segment pointer at
// each ULT context switch (§2.3.4). Untagged mutable variables remain
// shared — automation is "Mediocre" because the programmer must find
// and tag every unsafe declaration.
// ---------------------------------------------------------------------

type tlsglobalsMethod struct{}

func (*tlsglobalsMethod) Kind() Kind                 { return KindTLSglobals }
func (*tlsglobalsMethod) Capabilities() Capabilities { return CapabilitiesOf(KindTLSglobals) }

func (m *tlsglobalsMethod) CheckEnv(env *ProcessEnv) error {
	if !env.Toolchain.SupportsTLSSegRefs {
		return fmt.Errorf("core: tlsglobals requires a compiler supporting -mno-tls-direct-seg-refs (GCC or Clang 10+); %s does not", env.Toolchain.Name)
	}
	return nil
}

func (m *tlsglobalsMethod) SwitchExtra(from, to *RankContext) sim.Time {
	if to == nil {
		return 0
	}
	return to.costModel.TLSSwitchCost
}

func (m *tlsglobalsMethod) Setup(env *ProcessEnv, img *elf.Image, vps []int, start sim.Time) (*SetupResult, error) {
	h, done, err := loadBaseProgram(env, img, start)
	if err != nil {
		return nil, err
	}
	res := &SetupResult{SharedInstance: h.Inst}
	extra, err := setupTLSContexts(m, env, img, h.Inst, vps, res, false)
	if err != nil {
		return nil, err
	}
	res.Done = done + extra
	return res, nil
}

// setupTLSContexts builds contexts whose tagged (or, if privatizeAll,
// every mutable) variables live in per-rank TLS blocks. It returns the
// summed per-rank TLS template copy cost. Shared code between
// TLSglobals and -fmpc-privatize.
func setupTLSContexts(m Method, env *ProcessEnv, img *elf.Image, shared *elf.Instance, vps []int, res *SetupResult, privatizeAll bool) (sim.Time, error) {
	direct := accessCost(env.Cost, false)
	tls := accessCost(env.Cost, true)
	// Assign TLS slots once; identical layout per rank.
	slots := make(map[int]int)
	for _, v := range img.Vars {
		if !v.Mutable() {
			continue
		}
		if privatizeAll || v.Tagged {
			slots[v.Index] = len(slots)
		}
	}
	var extra sim.Time
	for _, vp := range vps {
		c, err := newContext(m, env, img, shared, vp)
		if err != nil {
			return 0, err
		}
		c.TLS = make([]uint64, len(slots))
		for idx, slot := range slots {
			c.TLS[slot] = img.Vars[idx].Init
			c.tlsSlot[idx] = slot
		}
		extra += tlsCopyCost(env, len(slots))
		c.Migratable = true
		c.resolveAll(env, func(v *elf.Var) cellRef {
			if slot, ok := slots[v.Index]; ok {
				return cellRef{kind: storeTLS, slot: slot, cost: tls}
			}
			return cellRef{kind: storeShared, cost: direct}
		})
		res.Contexts = append(res.Contexts, c)
	}
	res.PrivatizedWords = uint64(len(slots) * len(vps))
	return extra, nil
}

// ---------------------------------------------------------------------
// -fmpc-privatize: compiler-automated TLS tagging (§2.3.5). Behaves
// like TLSglobals at runtime but covers every mutable variable without
// programmer effort; requires the MPC-patched compiler, and migration
// was never implemented for it.
// ---------------------------------------------------------------------

type mpcMethod struct {
	// hls enables hierarchical local storage: variables annotated with
	// elf.LevelCore or elf.LevelNode share one copy per core or per
	// process instead of one per rank, minimizing memory overhead
	// (§2.3.5, Tchiboukdjian et al.).
	hls bool
}

func (*mpcMethod) Kind() Kind                 { return KindMPCPrivatize }
func (*mpcMethod) Capabilities() Capabilities { return CapabilitiesOf(KindMPCPrivatize) }

func (m *mpcMethod) CheckEnv(env *ProcessEnv) error {
	if !env.Toolchain.MPCPatched {
		return fmt.Errorf("core: -fmpc-privatize requires the Intel compiler or an MPC-patched GCC; %s is not patched", env.Toolchain.Name)
	}
	return nil
}

func (m *mpcMethod) SwitchExtra(from, to *RankContext) sim.Time {
	if to == nil {
		return 0
	}
	return to.costModel.TLSSwitchCost
}

func (m *mpcMethod) Setup(env *ProcessEnv, img *elf.Image, vps []int, start sim.Time) (*SetupResult, error) {
	h, done, err := loadBaseProgram(env, img, start)
	if err != nil {
		return nil, err
	}
	res := &SetupResult{SharedInstance: h.Inst}
	if m.hls {
		extra, err := m.setupHLSContexts(env, img, h.Inst, vps, res)
		if err != nil {
			return nil, err
		}
		done += extra
	} else {
		extra, err := setupTLSContexts(m, env, img, h.Inst, vps, res, true)
		if err != nil {
			return nil, err
		}
		done += extra
	}
	for _, c := range res.Contexts {
		c.Migratable = false
		c.MigrationVeto = "migration is not implemented for -fmpc-privatize (Table 1)"
	}
	res.Done = done
	return res, nil
}

// setupHLSContexts builds contexts with per-level storage: LevelULT
// variables get per-rank TLS slots, LevelCore variables one cell block
// per PE, LevelNode variables one block per process.
func (m *mpcMethod) setupHLSContexts(env *ProcessEnv, img *elf.Image, shared *elf.Instance, vps []int, res *SetupResult) (sim.Time, error) {
	tlsCost := accessCost(env.Cost, true)
	direct := accessCost(env.Cost, false)

	ultSlots := map[int]int{}
	coreSlots := map[int]int{}
	nodeSlots := map[int]int{}
	for _, v := range img.Vars {
		if !v.Mutable() {
			continue
		}
		switch v.Level {
		case elf.LevelCore:
			coreSlots[v.Index] = len(coreSlots)
		case elf.LevelNode:
			nodeSlots[v.Index] = len(nodeSlots)
		default:
			ultSlots[v.Index] = len(ultSlots)
		}
	}
	nodeCells := make([]uint64, len(nodeSlots))
	for idx, slot := range nodeSlots {
		nodeCells[slot] = img.Vars[idx].Init
	}
	coreCellsByPE := map[int][]uint64{}
	var extra sim.Time
	extra += tlsCopyCost(env, len(nodeSlots)) // one node-level copy
	for _, vp := range vps {
		c, err := newContext(m, env, img, shared, vp)
		if err != nil {
			return 0, err
		}
		c.TLS = make([]uint64, len(ultSlots))
		for idx, slot := range ultSlots {
			c.TLS[slot] = img.Vars[idx].Init
			c.tlsSlot[idx] = slot
		}
		pe := env.localPE(vp)
		cells, ok := coreCellsByPE[pe]
		if !ok {
			cells = make([]uint64, len(coreSlots))
			for idx, slot := range coreSlots {
				cells[slot] = img.Vars[idx].Init
			}
			coreCellsByPE[pe] = cells
			extra += tlsCopyCost(env, len(coreSlots))
		}
		c.coreCells = cells
		c.nodeCells = nodeCells
		extra += tlsCopyCost(env, len(ultSlots))
		c.resolveAll(env, func(v *elf.Var) cellRef {
			if slot, ok := ultSlots[v.Index]; ok {
				return cellRef{kind: storeTLS, slot: slot, cost: tlsCost}
			}
			if slot, ok := coreSlots[v.Index]; ok {
				return cellRef{kind: storeCoreCell, slot: slot, cost: tlsCost}
			}
			if slot, ok := nodeSlots[v.Index]; ok {
				return cellRef{kind: storeNodeCell, slot: slot, cost: direct}
			}
			return cellRef{kind: storeShared, cost: direct}
		})
		res.Contexts = append(res.Contexts, c)
	}
	// Memory accounting: words of privatized storage materialized in
	// this process.
	res.PrivatizedWords = uint64(len(ultSlots)*len(vps) + len(coreSlots)*len(coreCellsByPE) + len(nodeSlots))
	return extra, nil
}
