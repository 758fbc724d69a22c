package core

import (
	"fmt"
	"testing"

	"provirt/internal/elf"
	"provirt/internal/loader"
	"provirt/internal/machine"
	"provirt/internal/mem"
	"provirt/internal/sim"
)

// The nine Setup bodies, their CheckEnv and their SwitchExtra as they
// were written before a method became a row of methodTable — one type
// per method, each with its own per-rank loop. They are kept as the
// reference the one table-driven Setup is held to (OracleCompare). An
// oracle context resolves through a plan of its own, filled rank by
// rank by the old per-method decide functions.

// oracleOutcome is what an old method said about the ranks it built,
// beyond the contexts themselves.
type oracleOutcome struct {
	*SetupResult
	migratable  bool
	veto        string
	switchExtra func(to *RankContext) sim.Time
}

func oracleContext(k Kind, env *ProcessEnv, img *elf.Image, shared *elf.Instance, vp int) (*RankContext, error) {
	return newContext(k, &plan{cells: make([]cellRef, len(img.Vars))}, env, img, shared, vp)
}

// oracleResolveAll assigns every variable a storage location. decide
// returns the storage for mutable variables; const variables always
// resolve to the shared instance.
func oracleResolveAll(c *RankContext, env *ProcessEnv, decide func(v *elf.Var) cellRef) {
	direct := accessCost(env.Cost, false)
	for _, v := range c.Img.Vars {
		if !v.Mutable() {
			c.plan.cells[v.Index] = cellRef{kind: storeShared, cost: direct}
			continue
		}
		c.plan.cells[v.Index] = decide(v)
	}
}

func oracleLoadBase(env *ProcessEnv, img *elf.Image, start sim.Time) (*loader.Handle, sim.Time, error) {
	start += env.Cost.ExecLoadBase + env.Cost.RuntimeInitBase
	h, done, err := env.Linker.Dlopen(img, img.Name, start)
	if err != nil {
		return nil, start, err
	}
	return h, done, nil
}

func oracleCheckEnv(kind Kind, env *ProcessEnv) error {
	glibc := env.OS.Kind == "linux" && env.OS.Glibc
	switch {
	case kind == KindSwapglobals && !env.OS.OldOrPatchedLinker:
		return fmt.Errorf("swapglobals requires ld <= 2.23 or a patched linker")
	case kind == KindSwapglobals && env.SMP:
		return fmt.Errorf("swapglobals does not support SMP mode")
	case kind == KindTLSglobals && !env.Toolchain.SupportsTLSSegRefs:
		return fmt.Errorf("tlsglobals requires -mno-tls-direct-seg-refs")
	case kind == KindMPCPrivatize && !env.Toolchain.MPCPatched:
		return fmt.Errorf("-fmpc-privatize requires an MPC-patched compiler")
	case (kind == KindPIPglobals || isPIE(kind)) && !glibc:
		return fmt.Errorf("%s requires GNU/Linux", kind)
	case kind == KindFSglobals && !env.OS.SharedFS:
		return fmt.Errorf("fsglobals requires a shared filesystem")
	case (kind == KindPIPglobals || kind == KindFSglobals || isPIE(kind)) && !env.Toolchain.PIE:
		return fmt.Errorf("%s requires a Position Independent Executable", kind)
	}
	return nil
}

// isPIE reports whether kind is PIEglobals or one of its §6 variants.
func isPIE(kind Kind) bool {
	return kind == KindPIEglobals || kind == KindPIEglobalsSharedCode || kind == KindPIEglobalsSharedCodeCOW
}

// oracleSetup is the old CheckEnv-then-Setup of one method.
func oracleSetup(k Kind, env *ProcessEnv, img *elf.Image, vps []int, start sim.Time) (*oracleOutcome, error) {
	if err := oracleCheckEnv(k, env); err != nil {
		return nil, err
	}
	out := &oracleOutcome{SetupResult: &SetupResult{}, migratable: true,
		switchExtra: func(*RankContext) sim.Time { return 0 }}
	tlsSwitch := func(to *RankContext) sim.Time {
		if to == nil {
			return 0
		}
		return env.Cost.TLSSwitchCost
	}
	var err error
	switch k {
	case KindNone:
		err = oracleNone(k, env, img, vps, start, out.SetupResult)
	case KindManual, KindPhotran:
		err = oracleRefactor(k, env, img, vps, start, out.SetupResult)
	case KindSwapglobals:
		out.switchExtra = func(to *RankContext) sim.Time {
			if to == nil || to.Method != KindSwapglobals {
				return 0
			}
			return env.Cost.GOTSwapCost
		}
		err = oracleSwapglobals(k, env, img, vps, start, out.SetupResult)
	case KindTLSglobals:
		out.switchExtra = tlsSwitch
		err = oracleTLS(k, env, img, vps, start, out.SetupResult, false)
	case KindMPCPrivatize:
		out.switchExtra = tlsSwitch
		out.migratable, out.veto = false, "migration is not implemented for -fmpc-privatize (Table 1)"
		err = oracleTLS(k, env, img, vps, start, out.SetupResult, true)
	case KindPIPglobals:
		out.migratable = false
		out.veto = "pipglobals segments are mapped by ld-linux.so's internal mmap calls, which cannot be intercepted and allocated via Isomalloc (§3.1)"
		err = oraclePIP(k, env, img, vps, start, out.SetupResult)
	case KindFSglobals:
		out.migratable = false
		out.veto = "fsglobals segments are mapped by the system dlopen, which cannot be intercepted and allocated via Isomalloc (§3.2)"
		err = oracleFS(k, env, img, vps, start, out.SetupResult)
	case KindPIEglobals, KindPIEglobalsSharedCode, KindPIEglobalsSharedCodeCOW:
		// PIEglobals implies TLSglobals where supported, so it pays the
		// TLS segment pointer update at every switch (§4.2).
		out.switchExtra = func(to *RankContext) sim.Time {
			if to == nil || to.TLS == nil {
				return 0
			}
			return env.Cost.TLSSwitchCost
		}
		err = oraclePIE(k, env, img, vps, start, out.SetupResult)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

func oracleNone(k Kind, env *ProcessEnv, img *elf.Image, vps []int, start sim.Time, res *SetupResult) error {
	h, done, err := oracleLoadBase(env, img, start)
	if err != nil {
		return err
	}
	res.SharedInstance, res.Done = h.Inst, done
	direct := accessCost(env.Cost, false)
	for _, vp := range vps {
		c, err := oracleContext(k, env, img, h.Inst, vp)
		if err != nil {
			return err
		}
		oracleResolveAll(c, env, func(v *elf.Var) cellRef {
			return cellRef{kind: storeShared, cost: direct}
		})
		res.Contexts = append(res.Contexts, c)
	}
	return nil
}

func oracleRefactor(k Kind, env *ProcessEnv, img *elf.Image, vps []int, start sim.Time, res *SetupResult) error {
	if k == KindPhotran && img.Language != "fortran" {
		return fmt.Errorf("core: photran refactoring applies only to Fortran codes; %q is %s", img.Name, img.Language)
	}
	h, done, err := oracleLoadBase(env, img, start)
	if err != nil {
		return err
	}
	res.SharedInstance = h.Inst
	// The encapsulated state struct is addressed through a pointer
	// parameter; compilers keep the base in a register, so accesses
	// charge as one indirection at most.
	priv := accessCost(env.Cost, true)
	words := uint64(len(img.Vars))
	for _, vp := range vps {
		c, err := oracleContext(k, env, img, h.Inst, vp)
		if err != nil {
			return err
		}
		if words > 0 {
			blk, err := c.Heap.Alloc(words*8, "refactored-state")
			if err != nil {
				return err
			}
			for _, v := range img.Vars {
				*blk.Words.Word(v.Index) = v.Init
			}
			c.heapCells = blk
			done += env.Cost.CopyTime(words * 8)
		}
		oracleResolveAll(c, env, func(v *elf.Var) cellRef {
			return cellRef{kind: storeHeapCell, slot: v.Index, cost: priv}
		})
		res.Contexts = append(res.Contexts, c)
	}
	res.Done = done
	return nil
}

func oracleSwapglobals(k Kind, env *ProcessEnv, img *elf.Image, vps []int, start sim.Time, res *SetupResult) error {
	h, done, err := oracleLoadBase(env, img, start)
	if err != nil {
		return err
	}
	res.SharedInstance = h.Inst
	direct := accessCost(env.Cost, false)
	got := accessCost(env.Cost, true)
	words := uint64(len(img.Vars))
	for _, vp := range vps {
		c, err := oracleContext(k, env, img, h.Inst, vp)
		if err != nil {
			return err
		}
		blk, err := c.Heap.Alloc(words*8, "swapglobals-copies")
		if err != nil {
			return err
		}
		for _, v := range img.Vars {
			*blk.Words.Word(v.Index) = v.Init
		}
		c.heapCells = blk
		// Per-rank GOT construction: one relocation-sized fixup per
		// entry plus the copy of initial values.
		done += env.Cost.CopyTime(words*8) +
			sim.Time(len(img.Vars)+len(img.Funcs))*env.Cost.RelocationCost
		oracleResolveAll(c, env, func(v *elf.Var) cellRef {
			if v.Class == elf.ClassStatic {
				return cellRef{kind: storeShared, cost: direct}
			}
			return cellRef{kind: storeHeapCell, slot: v.Index, cost: got}
		})
		res.Contexts = append(res.Contexts, c)
	}
	res.Done = done
	return nil
}

// oracleTLSBlock builds one rank's TLS block by hand: each slot's
// variable's initial value, in a view of a base of its own.
func oracleTLSBlock(img *elf.Image, slots map[int]int) *mem.Segment {
	init := make([]uint64, len(slots))
	for idx, slot := range slots {
		init[slot] = img.Vars[idx].Init
	}
	return mem.FreezeSegment(init, len(init)).View()
}

// oracleTLS builds contexts whose tagged (or, if privatizeAll, every
// mutable) variables live in per-rank TLS blocks: TLSglobals and
// -fmpc-privatize.
func oracleTLS(k Kind, env *ProcessEnv, img *elf.Image, vps []int, start sim.Time, res *SetupResult, privatizeAll bool) error {
	h, done, err := oracleLoadBase(env, img, start)
	if err != nil {
		return err
	}
	res.SharedInstance = h.Inst
	direct := accessCost(env.Cost, false)
	tls := accessCost(env.Cost, true)
	// Assign TLS slots once; identical layout per rank.
	slots := make(map[int]int)
	for _, v := range img.Vars {
		if v.Mutable() && (privatizeAll || v.Tagged) {
			slots[v.Index] = len(slots)
		}
	}
	var extra sim.Time
	for _, vp := range vps {
		c, err := oracleContext(k, env, img, h.Inst, vp)
		if err != nil {
			return err
		}
		c.TLS = oracleTLSBlock(img, slots)
		extra += env.Cost.CopyTime(uint64(len(slots)) * 8)
		oracleResolveAll(c, env, func(v *elf.Var) cellRef {
			if slot, ok := slots[v.Index]; ok {
				return cellRef{kind: storeTLS, slot: slot, cost: tls}
			}
			return cellRef{kind: storeShared, cost: direct}
		})
		res.Contexts = append(res.Contexts, c)
	}
	res.Done = done + extra
	return nil
}

func oraclePIP(k Kind, env *ProcessEnv, img *elf.Image, vps []int, start sim.Time, res *SetupResult) error {
	env.Linker.PatchedGlibc = env.OS.PatchedGlibc
	h, done, err := oracleLoadBase(env, img, start)
	if err != nil {
		return err
	}
	res.SharedInstance = h.Inst
	direct := accessCost(env.Cost, false)
	for _, vp := range vps {
		// One dlmopen per virtual rank; hits ErrNamespaceLimit past 12
		// ranks/process on stock glibc.
		copyH, copyDone, err := env.Linker.Dlmopen(img, img.Name, done)
		if err != nil {
			return fmt.Errorf("core: pipglobals: rank %d: %w", vp, err)
		}
		done = env.Linker.PopulateShim(copyH, copyDone)
		c, err := oracleContext(k, env, img, h.Inst, vp)
		if err != nil {
			return err
		}
		c.Private = copyH.Inst
		oracleResolveAll(c, env, func(v *elf.Var) cellRef {
			return cellRef{kind: storePrivSeg, cost: direct}
		})
		res.Contexts = append(res.Contexts, c)
	}
	res.Done = done
	return nil
}

func oracleFS(k Kind, env *ProcessEnv, img *elf.Image, vps []int, start sim.Time, res *SetupResult) error {
	if img.SharedDeps > 0 {
		return fmt.Errorf("core: fsglobals: %q has %d shared-object dependencies", img.Name, img.SharedDeps)
	}
	h, done, err := oracleLoadBase(env, img, start)
	if err != nil {
		return err
	}
	res.SharedInstance = h.Inst
	direct := accessCost(env.Cost, false)
	for _, vp := range vps {
		path := fmt.Sprintf("/scratch/fsglobals/%s.vp%d", img.Name, vp)
		// Write this rank's binary copy, then dlopen it back. Both
		// transfers serialize on the shared filesystem.
		writeDone := loader.WriteBinaryToFS(env.FS, img, path, done)
		copyH, copyDone, err := env.Linker.DlopenFromFS(env.FS, img, path, writeDone)
		if err != nil {
			return fmt.Errorf("core: fsglobals: rank %d: %w", vp, err)
		}
		done = env.Linker.PopulateShim(copyH, copyDone)
		c, err := oracleContext(k, env, img, h.Inst, vp)
		if err != nil {
			return err
		}
		c.Private = copyH.Inst
		oracleResolveAll(c, env, func(v *elf.Var) cellRef {
			return cellRef{kind: storePrivSeg, cost: direct}
		})
		res.Contexts = append(res.Contexts, c)
	}
	res.Done = done
	return nil
}

func oraclePIE(k Kind, env *ProcessEnv, img *elf.Image, vps []int, start sim.Time, res *SetupResult) error {
	before := env.Linker.IteratePhdr()
	h, done, err := oracleLoadBase(env, img, start)
	if err != nil {
		return err
	}
	seg, err := diffPhdr(before, env.Linker.IteratePhdr(), img.Name)
	if err != nil {
		return err
	}
	shared := h.Inst
	if seg.CodeBase != shared.CodeBase || seg.DataBase != shared.DataBase {
		return fmt.Errorf("core: pieglobals: dl_iterate_phdr diff disagrees with the loader")
	}
	res.SharedInstance = shared
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
		c, err := oracleContext(k, env, img, shared, vp)
		if err != nil {
			return err
		}
		priv, cost, err := duplicateInstance(env, tmpl, c.Heap, k.row())
		if err != nil {
			return fmt.Errorf("core: pieglobals: rank %d: %w", vp, err)
		}
		done += cost
		c.Private = priv
		if useTLS {
			c.TLS = oracleTLSBlock(img, slots)
			done += env.Cost.CopyTime(uint64(len(slots)) * 8)
		}
		oracleResolveAll(c, env, func(v *elf.Var) cellRef {
			if slot, ok := slots[v.Index]; ok {
				return cellRef{kind: storeTLS, slot: slot, cost: tlsCost}
			}
			return cellRef{kind: storePrivSeg, cost: direct}
		})
		res.Contexts = append(res.Contexts, c)
	}
	res.Done = done
	return nil
}

// oracleEnv is a process environment in which every method can run: the
// paper's test system plus the three things it lacked.
func oracleEnv(t *testing.T, smp bool) *ProcessEnv {
	t.Helper()
	pes := 1
	if smp {
		pes = 2
	}
	cl, err := machine.New(machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: pes})
	if err != nil {
		t.Fatal(err)
	}
	proc := cl.Processes()[0]
	tc, osEnv := Bridges2Env()
	tc.MPCPatched, osEnv.OldOrPatchedLinker, osEnv.PatchedGlibc = true, true, true
	return &ProcessEnv{Proc: proc, Cost: cl.Cost, Linker: loader.New(proc, cl.Cost), FS: cl.FS,
		Toolchain: tc, OS: osEnv, SMP: smp}
}

// OracleCompare holds the table-driven Setup to the nine old ones over
// img: for every method (PIEglobals also without TLS), 1 and 3 and 14 ranks, SMP off and on, the two either both
// refuse or agree on Done, on every variable's address, placement,
// value and access cost, on each rank's heap footprint, TLS block and
// migration answer, and on the per-switch charge. It is exported to the
// external test package, which can import the workload images.
func OracleCompare(t *testing.T, img *elf.Image) {
	type variant struct {
		name string
		k    Kind
		env  func(*ProcessEnv)
	}
	var variants []variant
	for k := KindNone; k < numKinds; k++ {
		variants = append(variants, variant{k.String(), k, nil})
	}
	variants = append(variants,
		variant{"pieglobals-no-tls", KindPIEglobals, func(e *ProcessEnv) { e.Toolchain.SupportsTLSSegRefs = false }},
		variant{"pipglobals-stock-glibc", KindPIPglobals, func(e *ProcessEnv) { e.OS.PatchedGlibc = false }},
	)
	for _, v := range variants {
		for _, nvps := range []int{1, 3, 14} {
			for _, smp := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%dvp/smp=%v", v.name, nvps, smp), func(t *testing.T) {
					vps := make([]int, nvps)
					for i := range vps {
						vps[i] = 2 * i // rank ids need not be dense
					}
					envs := [2]*ProcessEnv{oracleEnv(t, smp), oracleEnv(t, smp)}
					if v.env != nil {
						v.env(envs[0])
						v.env(envs[1])
					}
					got, gotErr := v.k.Setup(envs[0], img, vps, 5)
					want, wantErr := oracleSetup(v.k, envs[1], img, vps, 5)
					if (gotErr == nil) != (wantErr == nil) {
						t.Fatalf("Setup: %v, oracle: %v", gotErr, wantErr)
					}
					if gotErr != nil {
						return
					}
					compareWithOracle(t, v.k, img, got, want)
				})
			}
		}
	}
}

func compareWithOracle(t *testing.T, k Kind, img *elf.Image, got *SetupResult, want *oracleOutcome) {
	t.Helper()
	if got.Done != want.Done {
		t.Errorf("Done = %v, oracle %v", got.Done, want.Done)
	}
	if len(got.Contexts) != len(want.Contexts) {
		t.Fatalf("%d contexts, oracle %d", len(got.Contexts), len(want.Contexts))
	}
	if g, w := k.SwitchExtra(nil), want.switchExtra(nil); g != w {
		t.Errorf("SwitchExtra(nil) = %v, oracle %v", g, w)
	}
	for i, c := range got.Contexts {
		o := want.Contexts[i]
		if c.VP != o.VP {
			t.Fatalf("context %d is rank %d, oracle rank %d", i, c.VP, o.VP)
		}
		for _, v := range img.Vars {
			h, oh := c.Var(v.Name), o.Var(v.Name)
			if h.Addr() != oh.Addr() || h.Privatized() != oh.Privatized() {
				t.Errorf("rank %d %s: addr %#x privatized %v, oracle %#x %v",
					c.VP, v.Name, h.Addr(), h.Privatized(), oh.Addr(), oh.Privatized())
			}
			gCell, gCost, gBlk := c.resolve(v)
			wCell, wCost, wBlk := o.resolve(v)
			if gCost != wCost || *gCell != *wCell || (gBlk == nil) != (wBlk == nil) {
				t.Errorf("rank %d %s: cost %v value %d dirties-block %v, oracle %v %d %v",
					c.VP, v.Name, gCost, *gCell, gBlk != nil, wCost, *wCell, wBlk != nil)
			}
		}
		if g, w := c.Heap.ResidentBytes(), o.Heap.ResidentBytes(); g != w {
			t.Errorf("rank %d: resident bytes %d, oracle %d", c.VP, g, w)
		}
		if g, w := c.Heap.SharedSpanBytes(), o.Heap.SharedSpanBytes(); g != w {
			t.Errorf("rank %d: shared span bytes %d, oracle %d", c.VP, g, w)
		}
		if (c.TLS == nil) != (o.TLS == nil) || c.TLS.Len() != o.TLS.Len() {
			t.Errorf("rank %d: TLS block nil=%v len %d, oracle nil=%v len %d", c.VP, c.TLS == nil, c.TLS.Len(), o.TLS == nil, o.TLS.Len())
		} else {
			for i := 0; i < c.TLS.Len(); i++ {
				if g, w := c.TLS.Load(i), o.TLS.Load(i); g != w {
					t.Errorf("rank %d: TLS slot %d holds %d, oracle %d", c.VP, i, g, w)
				}
			}
		}
		if (c.Private == nil) != (o.Private == nil) {
			t.Errorf("rank %d: private instance %v, oracle %v", c.VP, c.Private != nil, o.Private != nil)
		}
		if g, w := k.SwitchExtra(c), want.switchExtra(o); g != w {
			t.Errorf("rank %d: SwitchExtra = %v, oracle %v", c.VP, g, w)
		}
		if k.Migratable() != want.migratable {
			t.Errorf("rank %d: migratable %v, oracle %v", c.VP, k.Migratable(), want.migratable)
		}
		_, err := c.Serialize()
		switch {
		case want.migratable && err != nil:
			t.Errorf("rank %d: Serialize: %v", c.VP, err)
		case !want.migratable:
			wantErr := fmt.Sprintf("core: rank %d cannot migrate under %s: %s", c.VP, k, want.veto)
			if err == nil || err.Error() != wantErr {
				t.Errorf("rank %d: Serialize = %v, oracle %q", c.VP, err, wantErr)
			}
		}
	}
}

func TestSetupMatchesOracle(t *testing.T) {
	OracleCompare(t, testImage(t))
	// A Fortran image, for Photran, with a shared-object dependency, for
	// FSglobals to refuse.
	OracleCompare(t, elf.NewBuilder("fdyn").Language("fortran").
		TaggedGlobal("tg", 1).Global("g", 2).Static("s", 3).Const("c", 4).
		Func("main", 64).SharedDeps(1).MustBuild())
}
