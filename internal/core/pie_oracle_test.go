package core_test

import (
	"testing"

	"provirt/internal/core"
	"provirt/internal/elf"
	"provirt/internal/loader"
	"provirt/internal/machine"
	"provirt/internal/workloads/adcirc"
)

// oracleDuplicate is the PIEglobals copy as it was written before ranks
// became copy-on-write views: memcpy the whole data segment and every
// ctor heap object, then scan each copied word and rebase the ones that
// look like pointers into the original. It is kept as the reference the
// relocation-list path is held to; priv supplies only the addresses the
// rank's copies landed at.
func oracleDuplicate(src, priv *elf.Instance) (data []uint64, objs [][]uint64) {
	heapObjAddrs := make(map[uint64]uint64)
	for k, o := range src.HeapObjs {
		heapObjAddrs[o.Addr] = priv.HeapObjs[k].Addr
	}
	rebase := func(w uint64) uint64 {
		switch {
		case src.ContainsCode(w):
			return priv.CodeBase + (w - src.CodeBase)
		case src.ContainsData(w):
			return priv.DataBase + (w - src.DataBase)
		default:
			if na, ok := heapObjAddrs[w]; ok {
				return na
			}
			if obj := src.HeapObjAt(w); obj != nil {
				return heapObjAddrs[obj.Addr] + (w - obj.Addr)
			}
			return w
		}
	}
	data = make([]uint64, src.Seg.Len())
	for i := range data {
		data[i] = rebase(src.Seg.Load(i))
	}
	for _, o := range src.HeapObjs {
		words := make([]uint64, o.Words.Len())
		for i := range words {
			words[i] = rebase(o.Words.Load(i))
		}
		objs = append(objs, words)
	}
	return data, objs
}

func kindSetup(t testing.TB, kind core.Kind, img *elf.Image, vps int) *core.SetupResult {
	t.Helper()
	cl, err := machine.New(machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 1})
	if err != nil {
		t.Fatal(err)
	}
	proc := cl.Processes()[0]
	tc, osEnv := core.Bridges2Env()
	env := &core.ProcessEnv{
		Proc: proc, Cost: cl.Cost, Linker: loader.New(proc, cl.Cost), FS: cl.FS, Toolchain: tc, OS: osEnv,
	}
	ids := make([]int, vps)
	for i := range ids {
		ids[i] = i
	}
	res, err := kind.Setup(env, img, ids, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// ctorHeavyImage builds a C++-shaped image: many constructors whose
// allocations carry vtable slots, globals pointing at functions and at
// those allocations, and three plain integers. With hazards set, the
// integers hold values that fall inside the loaded image's code segment,
// data segment and the middle of a ctor allocation — the §3.3 false
// positives, which only the scan's range predicate can see.
func ctorHeavyImage(hazards [3]uint64) *elf.Image {
	b := elf.NewBuilder("ctorheavy").Language("c++").
		Func("main", 2048).Func("vm_a", 256).Func("vm_b", 256).Func("vm_c", 512).
		Global("plain", 7).Global("int_a", 0).Global("int_b", 0).Global("int_c", 0).
		DataBulk(64 << 10)
	names := []string{"obj0", "obj1", "obj2", "obj3", "obj4", "obj5", "obj6", "obj7"}
	fns := []string{"vfn0", "vfn1", "vfn2", "vfn3", "vfn4", "vfn5", "vfn6", "vfn7"}
	for k := range names {
		b.Global(names[k], 0).Global(fns[k], 0)
	}
	for k := range names {
		b.Ctor(elf.Ctor{
			Allocs: []elf.CtorAlloc{
				{Size: 96, FuncPtrSlots: []int{0, 1, 5}},
				{Size: 40, FuncPtrSlots: []int{2}},
			},
			Writes: []elf.CtorWrite{
				{VarName: names[k], PointsToAlloc: k % 2},
				{VarName: fns[k], PointsToFunc: []string{"vm_a", "vm_b", "vm_c"}[k%3], PointsToAlloc: -1},
			},
		})
	}
	b.Ctor(elf.Ctor{Writes: []elf.CtorWrite{
		{VarName: "int_a", Value: hazards[0], PointsToAlloc: -1},
		{VarName: "int_b", Value: hazards[1], PointsToAlloc: -1},
		{VarName: "int_c", Value: hazards[2], PointsToAlloc: -1},
	}})
	return b.MustBuild()
}

// TestPIEDuplicationMatchesCopyAndScan: every rank's private data
// segment and ctor objects equal the old copy-and-scan result word for
// word — as built, after stores, after a migration hand-off, and after
// a checkpoint restore.
func TestPIEDuplicationMatchesCopyAndScan(t *testing.T) {
	// Load the ctor-heavy image once to learn where its segments and
	// allocations land, then rebuild it with integers aimed into them.
	probe := kindSetup(t, core.KindPIEglobals, ctorHeavyImage([3]uint64{}), 1).SharedInstance
	hazards := [3]uint64{probe.CodeBase + 72, probe.DataBase + 8*3, probe.HeapObjs[5].Addr + 16}

	for _, tc := range []struct {
		name    string
		img     *elf.Image
		store   string
		hazards bool
	}{
		{"adcirc", adcirc.Image(), "", false},
		{"ctor-heavy", ctorHeavyImage(hazards), "plain", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := kindSetup(t, core.KindPIEglobals, tc.img, 3)
			src := res.SharedInstance
			if tc.hazards {
				if src.CodeBase != probe.CodeBase || src.HeapObjs[5].Addr != probe.HeapObjs[5].Addr {
					t.Fatal("probe load and test load placed the image differently; hazards miss")
				}
				if got := res.Contexts[1].Load("int_c"); got == hazards[2] {
					t.Fatal("integer inside a ctor allocation was not rebased: the hazard is gone")
				}
			}
			for _, c := range res.Contexts {
				wantData, wantObjs := oracleDuplicate(src, c.Private)
				check := func(when string) {
					t.Helper()
					if c.Private.Seg.Len() != len(wantData) {
						t.Fatalf("rank %d %s: segment has %d words, oracle %d", c.VP, when, c.Private.Seg.Len(), len(wantData))
					}
					for i, want := range wantData {
						if got := c.Private.Seg.Load(i); got != want {
							t.Fatalf("rank %d %s: data word %d = %#x, copy-and-scan gives %#x", c.VP, when, i, got, want)
						}
					}
					for k, want := range wantObjs {
						for i := range want {
							if got := c.Private.HeapObjs[k].Words.Load(i); got != want[i] {
								t.Fatalf("rank %d %s: ctor object %d word %d = %#x, copy-and-scan gives %#x", c.VP, when, k, i, got, want[i])
							}
						}
					}
				}
				check("as built")

				// Two stores per round: one through a variable handle where
				// the image has a segment-resident variable (ADCIRC's are
				// all TLS-tagged), one straight into a bulk word on a page
				// no relocation touched.
				bulk := c.Private.Seg.Len() - 3
				store := func(val uint64) {
					if tc.store != "" {
						c.Store(tc.store, val)
						wantData[tc.img.VarByName(tc.store).Index] = val
					}
					*c.Private.Word(bulk) = val
					c.Heap.Lookup(c.Private.DataBase).Touch()
					wantData[bulk] = val
				}
				store(1000 + uint64(c.VP))
				check("after a store")

				if _, _, err := c.Handoff(nil); err != nil {
					t.Fatal(err)
				}
				check("after migration")

				ck, err := c.Serialize()
				if err != nil {
					t.Fatal(err)
				}
				atCheckpoint := append([]uint64(nil), wantData...)
				store(2000 + uint64(c.VP))
				check("after a post-migration store")
				if err := c.RestoreInto(ck, nil); err != nil {
					t.Fatal(err)
				}
				wantData = atCheckpoint
				check("after checkpoint restore")
			}
			// The process's instance is still what the loader mapped: no
			// rank's store or rebase reached it, though every rank cloned it.
			if got := src.Seg.Load(src.Seg.Len() - 3); got != 0 {
				t.Fatalf("a rank's store reached the process image: %d", got)
			}
			if got, ok := src.GOTEntryForVar(tc.img.Vars[0]); ok && got != src.VarAddr(tc.img.Vars[0]) {
				t.Fatalf("a rank's rebase reached the process GOT: %#x", got)
			}
		})
	}
}

// TestSetupMatchesOracleADCIRC runs the nine-methods oracle
// (methods_oracle_test.go) over the image the paper's scaling study
// loads: Fortran, TLS-tagged variables only, 16 MiB of segments.
func TestSetupMatchesOracleADCIRC(t *testing.T) {
	core.OracleCompare(t, adcirc.Image())
}
