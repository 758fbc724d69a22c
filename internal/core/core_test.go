package core

import (
	"strings"
	"testing"

	"provirt/internal/elf"
	"provirt/internal/loader"
	"provirt/internal/machine"
	"provirt/internal/mem"
	"provirt/internal/ult"
)

// newTestScheduler builds a scheduler on the cluster's first PE.
func newTestScheduler(cl *machine.Cluster) *ult.Scheduler {
	return ult.NewScheduler(cl.PE(0), cl.Engine, cl.Cost)
}

// newBoundThread makes a ULT bound to the context so access charges
// land on its clock.
func newBoundThread(c *RankContext, _ *ult.Scheduler, body func()) *ult.Thread {
	th := new(ult.Thread)
	ult.InitThread(th, c.VP, func(*ult.Thread) { body() })
	th.Context = c
	c.Thread = th
	return th
}

// testEnv builds a process environment on a 1-process cluster.
func testEnv(t *testing.T, smp bool) *ProcessEnv {
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
	return &ProcessEnv{
		Proc:      proc,
		Cost:      cl.Cost,
		Linker:    loader.New(proc, cl.Cost),
		FS:        cl.FS,
		Toolchain: tc,
		OS:        osEnv,
		SMP:       smp,
	}
}

func testImage(t *testing.T) *elf.Image {
	t.Helper()
	return elf.NewBuilder("app").
		TaggedGlobal("tg", 100).
		Global("ug", 200). // untagged mutable global
		TaggedStatic("ts", 300).
		Static("us", 400). // untagged mutable static
		Const("ro", 500).
		Func("main", 1024).
		Func("op", 256).
		CodeBulk(256 << 10).
		MustBuild()
}

// setup builds contexts for the given method over the image.
func setup(t *testing.T, kind Kind, env *ProcessEnv, img *elf.Image, vps int) *SetupResult {
	t.Helper()
	ids := make([]int, vps)
	for i := range ids {
		ids[i] = i
	}
	res, err := kind.Setup(env, img, ids, 0)
	if err != nil {
		t.Fatalf("Setup(%s): %v", kind, err)
	}
	if len(res.Contexts) != vps {
		t.Fatalf("%d contexts for %d vps", len(res.Contexts), vps)
	}
	return res
}

// privatizationMatrix pins, per method, which storage classes are
// actually privatized — the semantic content of Tables 1 and 3.
func TestPrivatizationMatrix(t *testing.T) {
	cases := []struct {
		kind Kind
		env  func(*ProcessEnv)
		// privatized variable names; the rest of the mutable set stays
		// shared.
		priv []string
	}{
		{KindNone, nil, nil},
		{KindManual, nil, []string{"tg", "ug", "ts", "us"}},
		{KindSwapglobals, func(e *ProcessEnv) { e.OS.OldOrPatchedLinker = true },
			[]string{"tg", "ug"}}, // globals only: no statics
		{KindTLSglobals, nil, []string{"tg", "ts"}}, // tagged only
		{KindMPCPrivatize, func(e *ProcessEnv) { e.Toolchain.MPCPatched = true },
			[]string{"tg", "ug", "ts", "us"}},
		{KindPIPglobals, nil, []string{"tg", "ug", "ts", "us"}},
		{KindFSglobals, nil, []string{"tg", "ug", "ts", "us"}},
		{KindPIEglobals, nil, []string{"tg", "ug", "ts", "us"}},
	}
	for _, tc := range cases {
		t.Run(tc.kind.String(), func(t *testing.T) {
			env := testEnv(t, false)
			if tc.env != nil {
				tc.env(env)
			}
			img := testImage(t)
			res := setup(t, tc.kind, env, img, 2)
			privSet := map[string]bool{}
			for _, n := range tc.priv {
				privSet[n] = true
			}
			c0, c1 := res.Contexts[0], res.Contexts[1]
			for _, v := range img.Vars {
				if !v.Mutable() {
					continue
				}
				h0, h1 := c0.Var(v.Name), c1.Var(v.Name)
				if h0.Privatized() != privSet[v.Name] {
					t.Errorf("%s: privatized=%v, want %v", v.Name, h0.Privatized(), privSet[v.Name])
				}
				h0.Store(1111)
				if privSet[v.Name] {
					if h1.Load() == 1111 {
						t.Errorf("%s: store leaked across ranks despite privatization", v.Name)
					}
				} else {
					if h1.Load() != 1111 {
						t.Errorf("%s: shared variable did not leak (model broken)", v.Name)
					}
				}
				// Reset for the next variable.
				h0.Store(v.Init)
				if !privSet[v.Name] {
					h1.Store(v.Init)
				}
			}
			// Consts are always shared and panic on store.
			if c0.Var("ro").Privatized() {
				t.Error("const reported privatized")
			}
		})
	}
}

func TestConstStorePanics(t *testing.T) {
	env := testEnv(t, false)
	res := setup(t, KindNone, env, testImage(t), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("store to const did not panic")
		}
	}()
	res.Contexts[0].Store("ro", 1)
}

// Setup checks the method's requirements itself and loads nothing into
// a process that does not meet them.
func TestCheckEnvFailures(t *testing.T) {
	cases := []struct {
		kind Kind
		env  func(*ProcessEnv)
		want string
	}{
		{KindSwapglobals, nil, "linker"}, // modern ld by default
		{KindSwapglobals, func(e *ProcessEnv) { e.OS.OldOrPatchedLinker = true; e.SMP = true }, "SMP"},
		{KindTLSglobals, func(e *ProcessEnv) { e.Toolchain.SupportsTLSSegRefs = false }, "-mno-tls-direct-seg-refs"},
		{KindMPCPrivatize, nil, "patched"},
		{KindPIPglobals, func(e *ProcessEnv) { e.OS.Kind = "macos"; e.OS.Glibc = false }, "GNU/Linux"},
		{KindPIEglobals, func(e *ProcessEnv) { e.OS.Kind = "macos"; e.OS.Glibc = false }, "GNU/Linux"},
		{KindFSglobals, func(e *ProcessEnv) { e.OS.SharedFS = false }, "shared filesystem"},
		{KindPIPglobals, func(e *ProcessEnv) { e.Toolchain.PIE = false }, "Position Independent"},
	}
	for _, tc := range cases {
		env := testEnv(t, false)
		if tc.env != nil {
			tc.env(env)
		}
		_, err := tc.kind.Setup(env, testImage(t), []int{0}, 0)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s Setup = %v, want mention of %q", tc.kind, err, tc.want)
		}
		if n := len(env.Linker.Handles()); n != 0 {
			t.Errorf("%s loaded %d objects into a process it refuses", tc.kind, n)
		}
	}
}

func TestPhotranRequiresFortran(t *testing.T) {
	env := testEnv(t, false)
	img := testImage(t) // language "c"
	m := KindPhotran
	if _, err := m.Setup(env, img, []int{0}, 0); err == nil {
		t.Fatal("photran accepted a C program")
	}
	fimg := elf.NewBuilder("fapp").Language("fortran").Global("g", 1).Func("main", 64).MustBuild()
	if _, err := m.Setup(env, fimg, []int{0}, 0); err != nil {
		t.Fatalf("photran rejected Fortran: %v", err)
	}
}

func TestFSglobalsRejectsSharedDeps(t *testing.T) {
	env := testEnv(t, false)
	img := elf.NewBuilder("dyn").Global("g", 1).Func("main", 64).SharedDeps(2).MustBuild()
	if _, err := KindFSglobals.Setup(env, img, []int{0}, 0); err == nil {
		t.Fatal("fsglobals accepted shared-object dependencies")
	}
}

func TestPIEglobalsDistinctSegments(t *testing.T) {
	env := testEnv(t, false)
	img := testImage(t)
	res := setup(t, KindPIEglobals, env, img, 3)
	bases := map[uint64]bool{}
	for _, c := range res.Contexts {
		if c.Private == nil {
			t.Fatal("no private instance")
		}
		if !c.Private.Migratable {
			t.Error("PIE instance not marked migratable")
		}
		if bases[c.Private.CodeBase] {
			t.Error("two ranks share a code base")
		}
		bases[c.Private.CodeBase] = true
		// Segments live inside the rank's own Isomalloc range.
		if c.Heap.Lookup(c.Private.CodeBase) == nil {
			t.Error("code segment not in the rank's heap")
		}
		if c.Heap.Lookup(c.Private.DataBase) == nil {
			t.Error("data segment not in the rank's heap")
		}
	}
	// GOT entries in each copy point into that copy.
	for _, c := range res.Contexts {
		g := img.VarByName("tg")
		got, ok := c.Private.GOTEntryForVar(g)
		if !ok {
			t.Fatal("no GOT entry")
		}
		if !c.Private.ContainsData(got) {
			t.Errorf("rank %d GOT entry %#x points outside its own data segment", c.VP, got)
		}
	}
}

// Every segment-duplicating method's private instance carries a data
// segment view, so "does a store dirty a heap block" is decided by who
// mapped the segment: Isomalloc for PIEglobals, the linker for PiP/FS.
func TestResolvedCellDirtiesOnlyIsomallocSegments(t *testing.T) {
	for _, kind := range []Kind{KindPIPglobals, KindFSglobals, KindPIEglobals} {
		t.Run(kind.String(), func(t *testing.T) {
			img := testImage(t)
			for _, c := range setup(t, kind, testEnv(t, false), img, 2).Contexts {
				if c.Private.Seg == nil {
					t.Fatalf("rank %d: private instance has no data segment view", c.VP)
				}
				_, _, blk := c.resolve(img.VarByName("ug"))
				if kind != KindPIEglobals {
					if blk != nil {
						t.Fatalf("rank %d: linker-mapped cell resolves to heap block %q", c.VP, blk.Label)
					}
					continue
				}
				if blk == nil || blk.Label != "pie-data-segment" || blk.Words != c.Private.Seg {
					t.Fatalf("rank %d: PIE cell resolves to block %+v, want the rank's pie-data-segment", c.VP, blk)
				}
			}
		})
	}
}

func TestPIEglobalsCtorHeapReplication(t *testing.T) {
	env := testEnv(t, false)
	img := elf.NewBuilder("cpp").
		Language("c++").
		Global("obj", 0).
		Func("main", 512).
		Func("vmethod", 128).
		Ctor(elf.Ctor{
			Allocs: []elf.CtorAlloc{{Size: 64, FuncPtrSlots: []int{0}}},
			Writes: []elf.CtorWrite{{VarName: "obj", PointsToAlloc: 0}},
		}).
		MustBuild()
	res := setup(t, KindPIEglobals, env, img, 2)
	c0, c1 := res.Contexts[0], res.Contexts[1]
	p0 := c0.Load("obj")
	p1 := c1.Load("obj")
	if p0 == p1 {
		t.Fatal("ctor heap object shared between ranks")
	}
	// Each rank's pointer lands in its own heap, and the replicated
	// object's function pointer points into that rank's code copy.
	o0 := c0.Private.HeapObjAt(p0)
	if o0 == nil {
		t.Fatal("rank 0 object not reachable")
	}
	if !c0.Private.ContainsCode(o0.Words.Load(0)) {
		t.Errorf("rank 0 vtable slot %#x outside its code copy [%#x,%#x)",
			o0.Words.Load(0), c0.Private.CodeBase, c0.Private.CodeBase+img.CodeSize)
	}
	o1 := c1.Private.HeapObjAt(p1)
	if o1 == nil || !c1.Private.ContainsCode(o1.Words.Load(0)) {
		t.Error("rank 1 replication broken")
	}
}

// TestPIEglobalsFalsePositive demonstrates the §3.3 pointer-scan
// hazard the authors plan to fix: an integer global whose value
// happens to fall inside the original code segment gets "rebased".
func TestPIEglobalsFalsePositive(t *testing.T) {
	env := testEnv(t, false)
	// First load to discover where the code segment will land; then
	// rebuild the scenario with an integer crafted into that range.
	probe := setup(t, KindPIEglobals, env, testImage(t), 1)
	codeBase := probe.SharedInstance.CodeBase

	env2 := testEnv(t, false)
	img := elf.NewBuilder("trap").
		Global("innocent_int", codeBase+64). // just a number, honest!
		Func("main", 1024).
		MustBuild()
	res := setup(t, KindPIEglobals, env2, img, 1)
	got := res.Contexts[0].Load("innocent_int")
	if got == codeBase+64 {
		t.Fatal("expected the pointer scan to corrupt the value (the documented false-positive hazard); it did not")
	}
	if !res.Contexts[0].Private.ContainsCode(got) {
		t.Fatalf("false positive rebased to %#x, outside the private code copy", got)
	}
}

func TestPieglobalsFind(t *testing.T) {
	env := testEnv(t, false)
	img := testImage(t)
	res := setup(t, KindPIEglobals, env, img, 1)
	c := res.Contexts[0]

	// A privatized code address translates back to the original, with
	// the right symbol.
	opAddr, err := c.FuncAddr("op")
	if err != nil {
		t.Fatal(err)
	}
	find, err := PieglobalsFind(c, opAddr+17)
	if err != nil {
		t.Fatal(err)
	}
	if find.Symbol != "op" || find.Offset != 17 || find.Segment != "code" {
		t.Fatalf("find = %+v", find)
	}
	origOp := c.Shared.FuncAddr(img.FuncByName("op"))
	if find.Original != origOp+17 {
		t.Fatalf("original %#x, want %#x", find.Original, origOp+17)
	}

	// A privatized data address names its variable.
	dfind, err := PieglobalsFind(c, c.Private.VarAddr(img.VarByName("ug")))
	if err != nil {
		t.Fatal(err)
	}
	if dfind.Symbol != "ug" || dfind.Segment != "data" {
		t.Fatalf("data find = %+v", dfind)
	}

	// Addresses outside the private copy are rejected.
	if _, err := PieglobalsFind(c, 0x1234); err == nil {
		t.Fatal("bogus address accepted")
	}
	// Contexts without private segments are rejected.
	envN := testEnv(t, false)
	resN := setup(t, KindNone, envN, testImage(t), 1)
	if _, err := PieglobalsFind(resN.Contexts[0], opAddr); err == nil {
		t.Fatal("pieglobalsfind on unprivatized context accepted")
	}
}

func TestMigrationRoundTripPreservesEverything(t *testing.T) {
	for _, kind := range []Kind{KindManual, KindTLSglobals, KindPIEglobals} {
		t.Run(kind.String(), func(t *testing.T) {
			env := testEnv(t, false)
			img := testImage(t)
			res := setup(t, kind, env, img, 1)
			c := res.Contexts[0]
			// Mutate privatized state and heap.
			c.Store("tg", 777)
			blk, err := c.Heap.Alloc(128, "user")
			if err != nil {
				t.Fatal(err)
			}
			*blk.Words.Word(5) = 12345

			payload, err := c.Serialize()
			if err != nil {
				t.Fatal(err)
			}
			if payload.Bytes() == 0 {
				t.Fatal("empty payload")
			}

			// Restore into a different process.
			env2 := testEnv(t, false)
			res2 := setup(t, kind, env2, img, 1)
			if err := c.RestoreInto(payload, res2.SharedInstance); err != nil {
				t.Fatal(err)
			}
			if got := c.Load("tg"); got != 777 {
				t.Errorf("tg = %d after restore", got)
			}
			nb := c.Heap.Lookup(blk.Addr)
			if nb == nil || nb.Words.Load(5) != 12345 {
				t.Error("heap payload lost")
			}
			if kind == KindPIEglobals {
				if c.Private == nil || c.Heap.Lookup(c.Private.CodeBase) == nil {
					t.Error("code segment not rebound after restore")
				}
			}
		})
	}
}

func TestSerializeRefusals(t *testing.T) {
	for _, tc := range []struct {
		kind Kind
		want string
	}{
		{KindPIPglobals, "ld-linux"},
		{KindFSglobals, "dlopen"},
		{KindMPCPrivatize, "not implemented"},
	} {
		env := testEnv(t, false)
		if tc.kind == KindMPCPrivatize {
			env.Toolchain.MPCPatched = true
		}
		res := setup(t, tc.kind, env, testImage(t), 1)
		_, err := res.Contexts[0].Serialize()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s Serialize = %v, want mention of %q", tc.kind, err, tc.want)
		}
	}
}

func TestFuncOffsetTranslationAcrossRanks(t *testing.T) {
	env := testEnv(t, false)
	img := testImage(t)
	res := setup(t, KindPIEglobals, env, img, 2)
	c0, c1 := res.Contexts[0], res.Contexts[1]
	a0, _ := c0.FuncAddr("op")
	a1, _ := c1.FuncAddr("op")
	if a0 == a1 {
		t.Fatal("ranks share a function address under PIEglobals")
	}
	off0, err := c0.FuncOffset(a0)
	if err != nil {
		t.Fatal(err)
	}
	// The offset resolves to the same function at the other rank.
	f, err := c1.FuncAtOffset(off0)
	if err != nil || f.Name != "op" {
		t.Fatalf("offset translation: %v, %v", f, err)
	}
}

// TestPIESharedCodePages verifies the §6 future-work option: shared
// read-only code mappings preserve privatization semantics while
// eliminating code bytes from resident memory and migration payloads.
func TestPIESharedCodePages(t *testing.T) {
	img := testImage(t)

	mkCtx := func(m Kind) *RankContext {
		env := testEnv(t, false)
		ids := []int{0}
		res, err := m.Setup(env, img, ids, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.Contexts[0]
	}
	plain := mkCtx(KindPIEglobals)
	shared := mkCtx(KindPIEglobalsSharedCode)

	// Same privatization semantics.
	shared.Store("ug", 42)
	if shared.Var("ug").Load() != 42 || !shared.Var("ug").Privatized() {
		t.Fatal("shared-code option broke privatization")
	}
	// Code still occupies the rank's address range (functions resolve
	// to per-rank addresses).
	a, _ := shared.FuncAddr("op")
	if shared.Heap.Lookup(a) == nil {
		t.Fatal("shared code block not in the rank's range")
	}
	// Resident footprint shrinks by the code size.
	if plainRes, sharedRes := plain.Heap.ResidentBytes(), shared.Heap.ResidentBytes(); plainRes-sharedRes < img.CodeSize {
		t.Errorf("resident bytes %d vs %d: expected a %d-byte code saving", plainRes, sharedRes, img.CodeSize)
	}
	// Migration payload shrinks by the code size, and survives a round
	// trip.
	p1, err := plain.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := shared.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	if p1.Bytes()-p2.Bytes() < img.CodeSize {
		t.Errorf("payload %d vs %d: expected a %d-byte saving", p1.Bytes(), p2.Bytes(), img.CodeSize)
	}
	env2 := testEnv(t, false)
	res2, err := KindPIEglobalsSharedCode.Setup(env2, img, []int{0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := shared.RestoreInto(p2, res2.SharedInstance); err != nil {
		t.Fatal(err)
	}
	if shared.Var("ug").Load() != 42 {
		t.Error("privatized value lost across shared-code migration")
	}
}

// TestAccessCostsChargedToClock: every privatized load/store advances
// the owning thread's PE clock by the cost model's per-access charge,
// and Charge amortizes bulk touches identically.
func TestAccessCostsChargedToClock(t *testing.T) {
	env := testEnv(t, false)
	img := testImage(t)
	res := setup(t, KindPIEglobals, env, img, 1)
	c := res.Contexts[0]

	cl, err := machine.New(machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 1})
	if err != nil {
		t.Fatal(err)
	}
	sched := newTestScheduler(cl)
	done := make(chan struct{})
	th := newBoundThread(c, sched, func() {
		before := c.Thread.Now()
		c.Store("ug", 1)
		_ = c.Load("ug")
		perAccess := env.Cost.GlobalAccessDirect
		if got := c.Thread.Now() - before; got != 2*perAccess {
			t.Errorf("2 accesses charged %v, want %v", got, 2*perAccess)
		}
		before = c.Thread.Now()
		c.Var("ug").Charge(1000)
		if got := c.Thread.Now() - before; got != 1000*perAccess {
			t.Errorf("bulk charge %v, want %v", got, 1000*perAccess)
		}
		close(done)
	})
	sched.Adopt(th)
	cl.Engine.Drain()
	select {
	case <-done:
	default:
		t.Fatal("thread body did not run")
	}
}

// kinds returns every method kind in declaration order.
func kinds() []Kind {
	out := make([]Kind, 0, int(numKinds))
	for k := KindNone; k < numKinds; k++ {
		out = append(out, k)
	}
	return out
}

func TestParseKindRoundTrip(t *testing.T) {
	for _, k := range kinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("nonsense"); err == nil {
		t.Error("nonsense method parsed")
	}
}

func TestCapabilityTableComplete(t *testing.T) {
	for _, k := range kinds() {
		m := k
		c := CapabilitiesOf(k)
		if c.DisplayName == "" {
			t.Errorf("%s has no capabilities row", k)
		}
		// What the row does must agree with its Table 3 cells.
		if m.Migratable() != (c.MigrationSupport == "Yes") {
			t.Errorf("%s: veto/cell mismatch on migration", k)
		}
		if (m.Needs()&NeedNoSMP == 0) != (c.SMPSupport != "No") {
			t.Errorf("%s: requirement/cell mismatch on SMP", k)
		}
	}
	if len(Table3Order()) != 8 {
		t.Errorf("Table 3 has %d rows", len(Table3Order()))
	}
	if numKinds.Valid() || CapabilitiesOf(numKinds).DisplayName != "" {
		t.Error("a kind past the table has a method")
	}
}

// The row's migration veto must agree with observed behaviour.
func TestCapabilitiesMatchBehaviour(t *testing.T) {
	for _, kind := range []Kind{KindManual, KindTLSglobals, KindPIPglobals, KindFSglobals, KindPIEglobals} {
		env := testEnv(t, false)
		res := setup(t, kind, env, testImage(t), 1)
		_, err := res.Contexts[0].Serialize()
		if m := res.Contexts[0].Method; m.Migratable() != (err == nil) {
			t.Errorf("%s: migratable=%v, Serialize: %v", kind, m.Migratable(), err)
		}
	}
}

// A rank id past the Isomalloc arena is an error from Setup, never
// mem.NewHeap's panic.
func TestSetupRejectsRankOutsideArena(t *testing.T) {
	env := testEnv(t, false)
	_, err := KindTLSglobals.Setup(env, testImage(t), []int{0, mem.MaxRanks}, 0)
	if err == nil || !strings.Contains(err.Error(), "Isomalloc arena") {
		t.Fatalf("Setup with rank %d: err = %v, want an arena-capacity error", mem.MaxRanks, err)
	}
}
