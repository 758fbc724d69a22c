package core

import (
	"testing"

	"provirt/internal/elf"
)

// hlsImage declares variables at all three privatization levels.
func hlsImage(t *testing.T) *elf.Image {
	t.Helper()
	return elf.NewBuilder("hlsapp").
		Global("per_rank", 1).Level(elf.LevelULT).
		Global("per_core", 2).Level(elf.LevelCore).
		Global("per_node", 3).Level(elf.LevelNode).
		Const("shared_ro", 4).
		Func("main", 512).
		MustBuild()
}

// hlsSetup builds 4 ranks on 2 local PEs (0,0,1,1).
// newMPCPrivatizeHLS returns -fmpc-privatize with MPC's hierarchical
// local storage extension enabled.
func newMPCPrivatizeHLS() Method { return &mpcMethod{hls: true} }

func hlsSetup(t *testing.T, m Method) *SetupResult {
	t.Helper()
	env := testEnv(t, true)
	env.Toolchain.MPCPatched = true
	env.PEOfVP = func(vp int) int { return vp / 2 }
	if err := m.CheckEnv(env); err != nil {
		t.Fatal(err)
	}
	res, err := m.Setup(env, hlsImage(t), []int{0, 1, 2, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestHLSSharingLevels(t *testing.T) {
	res := hlsSetup(t, newMPCPrivatizeHLS())
	c := res.Contexts

	// per_rank: fully private.
	c[0].Store("per_rank", 100)
	if c[1].Load("per_rank") == 100 {
		t.Error("ULT-level variable leaked to a sibling rank")
	}

	// per_core: shared within a PE, private across PEs.
	c[0].Store("per_core", 200)
	if c[1].Load("per_core") != 200 {
		t.Error("core-level variable not shared with the co-scheduled rank")
	}
	if c[2].Load("per_core") == 200 {
		t.Error("core-level variable leaked across cores")
	}

	// per_node: shared by every rank in the process.
	c[3].Store("per_node", 300)
	for i := 0; i < 4; i++ {
		if c[i].Load("per_node") != 300 {
			t.Errorf("rank %d does not see the node-level value", i)
		}
	}

	// All three levels still count as privatized (not raw sharing of
	// the base data segment).
	for _, name := range []string{"per_rank", "per_core", "per_node"} {
		if !c[0].Var(name).Privatized() {
			t.Errorf("%s not privatized under HLS", name)
		}
	}
	if c[0].Var("shared_ro").Privatized() {
		t.Error("const privatized")
	}
}

func TestHLSInitialValues(t *testing.T) {
	res := hlsSetup(t, newMPCPrivatizeHLS())
	for i, c := range res.Contexts {
		if c.Load("per_rank") != 1 || c.Load("per_core") != 2 || c.Load("per_node") != 3 {
			t.Fatalf("rank %d initial values: %d %d %d", i,
				c.Load("per_rank"), c.Load("per_core"), c.Load("per_node"))
		}
	}
}

// TestHLSMemorySavings: the point of HLS is fewer materialized copies
// than flat per-rank privatization.
func TestHLSMemorySavings(t *testing.T) {
	flat := hlsSetup(t, New(KindMPCPrivatize))
	hls := hlsSetup(t, newMPCPrivatizeHLS())
	// Flat: 3 mutable vars x 4 ranks = 12 words. HLS: 1x4 + 1x2 + 1 = 7.
	if flat.PrivatizedWords != 12 {
		t.Errorf("flat privatized words = %d, want 12", flat.PrivatizedWords)
	}
	if hls.PrivatizedWords != 7 {
		t.Errorf("hls privatized words = %d, want 7", hls.PrivatizedWords)
	}
	if hls.PrivatizedWords >= flat.PrivatizedWords {
		t.Error("HLS did not reduce privatized storage")
	}
}

func TestHLSRemainsNonMigratable(t *testing.T) {
	res := hlsSetup(t, newMPCPrivatizeHLS())
	if _, err := res.Contexts[0].Serialize(); err == nil {
		t.Fatal("HLS (mpc) rank serialized despite Table 1's 'Not implemented'")
	}
}
