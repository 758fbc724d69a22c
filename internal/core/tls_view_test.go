package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"provirt/internal/elf"
)

// A rank's TLS block is a copy-on-write view of its plan's frozen block.
// The flat block it replaced is the oracle here: one []uint64 per rank,
// copied at Setup, written by stores, copied into every payload and out
// of it on restore. Random sequences of Load, Store, Charge, Serialize,
// RestoreInto and Handoff run against both, over an image whose tagged
// variables span four granules (under -fmpc-privatize, which takes every
// mutable one, seven). After every step each rank's view, the slot
// layout and every payload taken so far must read as the oracle says,
// and no two ranks, and no rank and payload, may share a cell.
// -fmpc-privatize cannot migrate: there every Serialize and Handoff must
// be refused and leave the block as it was.
func TestTLSViewMatchesFlatBlock(t *testing.T) {
	b := elf.NewBuilder("tlswide").Func("main", 64)
	for i := 0; i < 400; i++ {
		switch i % 4 {
		case 0:
			b.TaggedGlobal(fmt.Sprintf("t%03d", i), uint64(i)+1)
		case 1:
			b.TaggedStatic(fmt.Sprintf("t%03d", i), 0)
		case 2:
			b.Global(fmt.Sprintf("g%03d", i), uint64(i)*3)
		default:
			b.Static(fmt.Sprintf("s%03d", i), uint64(i)*5)
		}
	}
	img := b.Const("k", 9).MustBuild()
	for _, kind := range []Kind{KindTLSglobals, KindPIEglobals, KindMPCPrivatize} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", kind, seed), func(t *testing.T) {
				tlsViewAgainstOracle(t, kind, img, rand.New(rand.NewSource(seed)))
			})
		}
	}
}

// flatRank is the oracle's copy of one rank: its TLS block as a flat
// slice, and how many accesses its context has counted.
type flatRank struct {
	block    []uint64
	accesses uint64
}

// flatCheckpoint is a payload and the flat block it must carry forever.
type flatCheckpoint struct {
	vp   int
	p    *MigrationPayload
	want []uint64
}

func tlsViewAgainstOracle(t *testing.T, kind Kind, img *elf.Image, rng *rand.Rand) {
	const ranks = 2
	newEnv := func() *ProcessEnv {
		env := testEnv(t, false)
		env.Toolchain, env.OS = kind.Grant(env.Toolchain, env.OS, ranks)
		return env
	}
	res := setup(t, kind, newEnv(), img, ranks)
	ctxs := res.Contexts

	// The oracle's slot layout, worked out here from the method's rule
	// rather than read from the plan.
	var tlsVars []*elf.Var
	for _, v := range img.Vars {
		if v.Mutable() && (kind == KindMPCPrivatize || v.Tagged) {
			tlsVars = append(tlsVars, v)
		}
	}
	if len(tlsVars) <= 2*granuleWordsForTest {
		t.Fatalf("%d TLS slots span fewer than three granules", len(tlsVars))
	}
	oracle := make([]flatRank, ranks)
	for r := range oracle {
		for _, v := range tlsVars {
			oracle[r].block = append(oracle[r].block, v.Init)
		}
	}
	var checkpoints []flatCheckpoint

	check := func(step string) {
		t.Helper()
		for r, c := range ctxs {
			o := oracle[r]
			if c.TLS.Len() != len(o.block) {
				t.Fatalf("%s: rank %d's TLS view has %d slots, oracle %d", step, r, c.TLS.Len(), len(o.block))
			}
			for slot, v := range tlsVars {
				if ref := c.plan.cells[v.Index]; ref.kind != storeTLS || ref.slot != slot {
					t.Fatalf("%s: %s at kind %d slot %d, oracle TLS slot %d", step, v.Name, ref.kind, ref.slot, slot)
				}
				if got := c.TLS.Load(slot); got != o.block[slot] {
					t.Fatalf("%s: rank %d %s reads %d, oracle %d", step, r, v.Name, got, o.block[slot])
				}
			}
			if c.Accesses() != o.accesses {
				t.Fatalf("%s: rank %d counted %d accesses, oracle %d", step, r, c.Accesses(), o.accesses)
			}
		}
		for i, cp := range checkpoints {
			if !slices.Equal(cp.p.TLS, cp.want) {
				t.Fatalf("%s: checkpoint %d of rank %d changed after it was taken", step, i, cp.vp)
			}
			if ctxs[cp.vp].TLS.Word(0) == &cp.p.TLS[0] {
				t.Fatalf("%s: rank %d shares a TLS cell with its checkpoint %d", step, cp.vp, i)
			}
		}
		if ctxs[0].TLS.Word(0) == ctxs[1].TLS.Word(0) {
			t.Fatalf("%s: two ranks share a TLS cell", step)
		}
	}

	check("setup")
	for step := 0; step < 300; step++ {
		r := rng.Intn(ranks)
		c, o := ctxs[r], &oracle[r]
		slot := rng.Intn(len(tlsVars))
		v := tlsVars[slot]
		var name string
		switch op := rng.Intn(10); {
		case op < 3:
			name = "store"
			val := rng.Uint64()
			c.Var(v.Name).Store(val)
			o.block[slot] = val
			o.accesses++
		case op < 5:
			name = "load"
			if got := c.Var(v.Name).Load(); got != o.block[slot] {
				t.Fatalf("step %d: rank %d Load(%s) = %d, oracle %d", step, r, v.Name, got, o.block[slot])
			}
			o.accesses++
		case op < 6:
			name = "charge"
			n := uint64(rng.Intn(100))
			c.Var(v.Name).Charge(n)
			o.accesses += n
		case op < 8:
			name = "serialize"
			p, err := c.Serialize()
			if !kind.Migratable() {
				if err == nil {
					t.Fatalf("step %d: %s serialized a rank", step, kind)
				}
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(p.TLS, o.block) {
				t.Fatalf("step %d: rank %d's payload carries a TLS block unlike the oracle's", step, r)
			}
			if got, want := p.Bytes()-p.Heap.Bytes(), uint64(len(o.block))*8; got != want {
				t.Fatalf("step %d: payload counts %d TLS bytes, want %d", step, got, want)
			}
			checkpoints = append(checkpoints, flatCheckpoint{vp: c.VP, p: p, want: slices.Clone(o.block)})
		case op < 9:
			name = "restore"
			var mine []flatCheckpoint
			for _, cp := range checkpoints {
				if cp.vp == c.VP {
					mine = append(mine, cp)
				}
			}
			if len(mine) == 0 {
				continue
			}
			cp := mine[rng.Intn(len(mine))]
			dest := setup(t, kind, newEnv(), img, ranks)
			if err := c.RestoreInto(cp.p, dest.SharedInstance); err != nil {
				t.Fatal(err)
			}
			copy(o.block, cp.want)
		default:
			name = "handoff"
			dest := setup(t, kind, newEnv(), img, ranks)
			bytes, wire, err := c.Handoff(dest.SharedInstance)
			if !kind.Migratable() {
				if err == nil {
					t.Fatalf("step %d: %s handed a rank off", step, kind)
				}
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if want := c.Heap.ResidentBytes() + uint64(len(o.block))*8; bytes != want {
				t.Fatalf("step %d: hand-off moves %d bytes, want %d", step, bytes, want)
			}
			if wire < uint64(len(o.block))*8 || wire > bytes {
				t.Fatalf("step %d: hand-off sends %d of %d bytes, TLS block %d", step, wire, bytes, len(o.block)*8)
			}
		}
		check(fmt.Sprintf("step %d (%s on rank %d)", step, name, r))
	}
}

// granuleWordsForTest is mem's copy-on-write unit in words, 512 B.
const granuleWordsForTest = 64
