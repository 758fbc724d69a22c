package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"provirt/internal/elf"
	"provirt/internal/mem"
	"provirt/internal/obs"
)

// tlsSlot returns the TLS block slot the context's plan gives the named
// variable.
func tlsSlot(t *testing.T, c *RankContext, name string) int {
	t.Helper()
	ref := c.plan.cells[c.Img.VarByName(name).Index]
	if ref.kind != storeTLS {
		t.Fatalf("%s is not a TLS cell (kind %d)", name, ref.kind)
	}
	return ref.slot
}

// A kept checkpoint restored twice gives each context its own TLS block:
// stores through one reach neither the other nor the payload, so the
// checkpoint can be restored a third time.
func TestRestoreIntoTwiceGivesIndependentTLSBlocks(t *testing.T) {
	img := testImage(t)
	src := setup(t, KindTLSglobals, testEnv(t, false), img, 1).Contexts[0]
	src.Store("tg", 7)
	payload, err := src.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	slot := tlsSlot(t, src, "tg")

	resA := setup(t, KindTLSglobals, testEnv(t, false), img, 1)
	resB := setup(t, KindTLSglobals, testEnv(t, false), img, 1)
	a, b := resA.Contexts[0], resB.Contexts[0]
	if err := a.RestoreInto(payload, resA.SharedInstance); err != nil {
		t.Fatal(err)
	}
	if err := b.RestoreInto(payload, resB.SharedInstance); err != nil {
		t.Fatal(err)
	}
	if a.TLS.Word(slot) == b.TLS.Word(slot) || a.TLS.Word(slot) == &payload.TLS[slot] {
		t.Fatal("restored contexts share a TLS block with each other or with the payload")
	}
	a.Store("tg", 8)
	if got := b.Load("tg"); got != 7 {
		t.Errorf("store into one restored block changed the other: tg = %d, want 7", got)
	}
	b.Store("tg", 9)
	if got := a.Load("tg"); got != 8 {
		t.Errorf("store into one restored block changed the other: tg = %d, want 8", got)
	}
	if got := payload.TLS[slot]; got != 7 {
		t.Errorf("stores after restore changed the checkpoint: tg = %d, want 7", got)
	}
}

// A migration's hand-off leaves the rank its own TLS block: a handle
// held across the move stores into it, and the next Serialize copies it
// rather than handing the live block out.
func TestRestoreIntoConsumeAdoptsTLSBlock(t *testing.T) {
	c := setup(t, KindTLSglobals, testEnv(t, false), testImage(t), 1).Contexts[0]
	h := c.Var("tg")
	h.Store(5)
	slot := tlsSlot(t, c, "tg")
	block := c.TLS.Word(slot)
	dest := setup(t, KindTLSglobals, testEnv(t, false), testImage(t), 1)
	if _, _, err := c.Handoff(dest.SharedInstance); err != nil {
		t.Fatal(err)
	}
	if c.TLS.Word(slot) != block {
		t.Fatal("the hand-off replaced the rank's TLS block instead of keeping it")
	}
	h.Store(6)
	if got := *block; got != 6 {
		t.Errorf("store through a held handle did not land in the rank's block: %d, want 6", got)
	}

	next, err := c.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	h.Store(7)
	if got := next.TLS[slot]; got != 6 {
		t.Errorf("Serialize aliased the live TLS block: payload reads %d after a store of 7, want 6", got)
	}
}

// A handle taken before a restore, and used before it, reaches the
// restored storage afterwards whichever of the four kinds the variable
// lives in.
func TestHeldHandleReachesRestoredStorage(t *testing.T) {
	heldHandleAcrossMove(t, func(c *RankContext, dest *SetupResult) {
		p, err := c.Serialize()
		if err != nil {
			t.Fatal(err)
		}
		if err := c.RestoreInto(p, dest.SharedInstance); err != nil {
			t.Fatal(err)
		}
	})
}

// The same holds across a migration's hand-off: the rank keeps its own
// storage, and a shared cell resolves to the destination's copy.
func TestHeldHandleReachesHandedOffStorage(t *testing.T) {
	heldHandleAcrossMove(t, func(c *RankContext, dest *SetupResult) {
		if _, _, err := c.Handoff(dest.SharedInstance); err != nil {
			t.Fatal(err)
		}
	})
}

// heldHandleAcrossMove takes a handle to a variable of each storage
// kind, uses it, moves the rank into a second process with move, and
// checks that the handle reaches the rank's storage there.
func heldHandleAcrossMove(t *testing.T, move func(c *RankContext, dest *SetupResult)) {
	img := testImage(t)
	for _, tc := range []struct {
		kind    Kind
		varName string
		want    storageKind
	}{
		{KindPIEglobals, "ro", storeShared},
		{KindPIEglobals, "ug", storePrivSeg},
		{KindPIEglobals, "tg", storeTLS},
		{KindManual, "ug", storeHeapCell},
	} {
		t.Run(fmt.Sprintf("%s/%s", tc.kind, tc.varName), func(t *testing.T) {
			c := setup(t, tc.kind, testEnv(t, false), img, 1).Contexts[0]
			v := img.VarByName(tc.varName)
			if got := c.plan.cells[v.Index].kind; got != tc.want {
				t.Fatalf("%s lives in storage kind %d, want %d", tc.varName, got, tc.want)
			}
			h := c.Var(tc.varName)
			if v.Mutable() {
				h.Store(11)
			} else {
				h.Load()
			}
			dest := setup(t, tc.kind, testEnv(t, false), img, 1)
			move(c, dest)

			var cell *uint64
			switch tc.want {
			case storeShared:
				cell = dest.SharedInstance.Word(v.Index)
			case storePrivSeg:
				cell = c.Private.Word(v.Index)
			case storeTLS:
				cell = c.TLS.Word(c.plan.cells[v.Index].slot)
			case storeHeapCell:
				if c.heapCells != c.Heap.Lookup(c.heapCells.Addr) {
					t.Fatal("privatized cells not bound to the rank's heap")
				}
				cell = c.heapCells.Words.Word(v.Index)
			}
			if !v.Mutable() {
				// The destination process's copy of shared state.
				*cell = 22
				if got := h.Load(); got != 22 {
					t.Errorf("held handle reads %d, want the destination's 22", got)
				}
				return
			}
			if got := h.Load(); got != 11 {
				t.Errorf("held handle reads %d after the move, want 11", got)
			}
			h.Store(33)
			if *cell != 33 {
				t.Errorf("store through held handle left the rank's cell at %d, want 33", *cell)
			}
		})
	}
}

// A rank whose every cell lives in its TLS block or its heap cells
// allocates no per-variable cache, so building its context costs the
// same whatever the image's variable count; the first segment-backed
// access is what allocates one.
func TestContextWithoutSegmentCellsHoldsNoCache(t *testing.T) {
	image := func(n int) *elf.Image {
		b := elf.NewBuilder(fmt.Sprintf("tls%d", n)).Func("main", 64)
		for i := 0; i < n; i++ {
			b.TaggedGlobal(fmt.Sprintf("g%d", i), uint64(i))
		}
		return b.MustBuild()
	}
	for _, kind := range []Kind{KindTLSglobals, KindManual} {
		t.Run(kind.String(), func(t *testing.T) {
			env := testEnv(t, false)
			m := kind
			buildBytes := func(img *elf.Image) uint64 {
				p := m.newPlan(env, img)
				const runs = 20
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < runs; i++ {
					if _, err := newContext(m, p, env, img, nil, 0); err != nil {
						t.Fatal(err)
					}
				}
				runtime.ReadMemStats(&after)
				return (after.TotalAlloc - before.TotalAlloc) / runs
			}
			small, large := buildBytes(image(4)), buildBytes(image(4096))
			if large > small+256 {
				t.Errorf("a context costs %d B over 4096 variables and %d B over 4: build cost grows with the image", large, small)
			}

			img := image(64)
			c := setup(t, kind, env, img, 1).Contexts[0]
			for _, v := range img.Vars {
				h := c.Var(v.Name)
				h.Store(h.Load() + 1)
				h.Charge(2)
			}
			if c.rcells != nil {
				t.Errorf("%d-entry per-variable cache allocated for a plan with no segment-backed cell", len(c.rcells))
			}
		})
	}

	c := setup(t, KindTLSglobals, testEnv(t, false), testImage(t), 1).Contexts[0]
	c.Load("ro")
	if c.rcells == nil {
		t.Error("a segment-backed load left no cache entry")
	}
}

// TestLoadMaterialisesNoGranule: a load and a charge read through a
// rank's copy-on-write views and materialise nothing, whether the cell
// is in the rank's TLS block, the process's shared segment
// (TLSglobals' untagged global) or the rank's private segment
// (PIEglobals'). Only a store copies a granule out of the base.
func TestLoadMaterialisesNoGranule(t *testing.T) {
	for _, kind := range []Kind{KindTLSglobals, KindPIEglobals} {
		t.Run(kind.String(), func(t *testing.T) {
			img := testImage(t)
			c := setup(t, kind, testEnv(t, false), img, 1).Contexts[0]
			reg := obs.NewRegistry()
			mem.EnableObs(reg)
			defer mem.EnableObs(nil)
			for _, name := range []string{"tg", "ug", "ts", "us", "ro"} {
				want := img.VarByName(name).Init
				if got := c.Load(name); got != want {
					t.Errorf("%s loads %d, initialised %d", name, got, want)
				}
				c.Var(name).Charge(3)
			}
			var out strings.Builder
			if err := reg.WriteText(&out); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out.String(), "mem_segment_granules_materialized_total 0\n") {
				t.Errorf("loads and charges materialised granules:\n%s", out.String())
			}
			c.Store("tg", 1)
			out.Reset()
			if err := reg.WriteText(&out); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out.String(), "mem_segment_granules_materialized_total 1\n") {
				t.Errorf("a store into the rank's fresh TLS block did not materialise one granule:\n%s", out.String())
			}
		})
	}
}
