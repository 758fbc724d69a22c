package scenario

import (
	"encoding/json"
	"errors"
	"testing"

	"provirt/internal/ampi"
	"provirt/internal/core"
	"provirt/internal/elf"
	"provirt/internal/machine"
)

// buildUnchecked lowers the Spec the way Config and Build do, without
// asking Validate first: what the engine itself makes of the point.
func buildUnchecked(s *Spec) error {
	prog := s.Program
	if prog == nil {
		wl, _ := LookupWorkload(s.Workload)
		prog, _ = wl.New(s.WorkloadParams)
	}
	tc, osEnv := s.env()
	_, err := ampi.NewWorld(ampi.Config{
		Machine: s.Machine, VPs: s.VPs, Privatize: s.Method,
		Toolchain: tc, OS: osEnv, Placement: s.Placement,
	}, prog)
	return err
}

// refusedOn returns the Validate error's first FieldError on Method,
// Machine or Placement — the fields a method's requirements and a
// placement's values are reported on — or "".
func refusedOn(err error) string {
	var ve *ValidationError
	if errors.As(err, &ve) {
		for _, fe := range ve.Errs {
			if fe.Field == "Method" || fe.Field == "Machine" || fe.Field == "Placement" {
				return fe.Field
			}
		}
	}
	return ""
}

// TestValidateRefusesIffBuildFails walks every method against every
// single requirement withheld: Validate names the method's unmet need
// on the right field exactly when the engine would refuse the world,
// and the table in core says which those are. Under EnvAdjust the
// environment's shortcomings are granted away and only the machine's
// and the program's remain.
func TestValidateRefusesIffBuildFails(t *testing.T) {
	tc, osEnv := core.Bridges2Env()
	tc.MPCPatched, osEnv.OldOrPatchedLinker, osEnv.PatchedGlibc = true, true, true
	withDeps := &ampi.Program{
		Image: elf.NewBuilder("fdyn").Language("fortran").Global("g", 1).Func("main", 64).SharedDeps(1).MustBuild(),
		Main:  func(*ampi.Rank) {},
	}
	withheld := []struct {
		need     core.Requirement
		ofEnv    bool // a toolchain/OS shortcoming, which EnvAdjust grants
		withhold func(*Spec)
	}{
		{0, false, func(*Spec) {}},
		{core.NeedOldLinker, true, func(s *Spec) { s.OS.OldOrPatchedLinker = false }},
		{core.NeedMPCCompiler, true, func(s *Spec) { s.Toolchain.MPCPatched = false }},
		{core.NeedTLSSegRefs, true, func(s *Spec) { s.Toolchain.SupportsTLSSegRefs = false }},
		{core.NeedSharedFS, true, func(s *Spec) { s.OS.SharedFS = false }},
		{core.NeedGlibc, true, func(s *Spec) { s.OS.Glibc = false }},
		{core.NeedPIE, true, func(s *Spec) { s.Toolchain.PIE = false }},
		{core.NeedNamespaces, true, func(s *Spec) { s.OS.PatchedGlibc, s.VPs = false, 13 }},
		{core.NeedNoSMP, false, func(s *Spec) { s.Machine.PEsPerProc = 2 }},
		{core.NeedFortran, false, func(s *Spec) { s.Workload = "jacobi" }},
		{core.NeedNoSharedDeps, false, func(s *Spec) { s.Workload, s.Program = "", withDeps }},
	}
	refused := map[core.Requirement]int{}
	for k := core.Kind(0); k.Valid(); k++ {
		for _, w := range withheld {
			for _, policy := range []EnvPolicy{EnvExplicit, EnvAdjust} {
				sp := Spec{
					Machine: machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 1}, VPs: 2, Method: k,
					EnvPolicy: policy, Toolchain: tc, OS: osEnv,
					Workload: "adcirc", WorkloadParams: WorkloadParams{Quick: true},
				}
				w.withhold(&sp)
				want := ""
				if k.Needs()&w.need != 0 && !(w.ofEnv && policy == EnvAdjust) {
					want = "Method"
					if w.need == core.NeedNoSMP {
						want = "Machine"
					}
					refused[w.need]++
				}
				verr, berr := sp.Validate(), buildUnchecked(&sp)
				if got := refusedOn(verr); got != want || (berr != nil) != (want != "") {
					policyName, _ := envPolicyName(policy)
					t.Errorf("%s without requirement %#x under %s: Validate refuses on %q (%v), build: %v; want refusal on %q",
						k, w.need, policyName, got, verr, berr, want)
				}
			}
		}
	}
	for _, w := range withheld[1:] {
		if refused[w.need] == 0 {
			t.Errorf("no method was refused for lacking requirement %#x: the walk does not exercise it", w.need)
		}
	}
}

// The three documents that used to pass Validate — a 200 from the
// server — and then fail in Build.
func TestDriftedDocumentsAreRefusedOrRun(t *testing.T) {
	const crowded = `"method":"pipglobals","vps":14,"machine":{"nodes":2,"procs_per_node":1,"pes_per_proc":1},"placement":[0,0,0,0,0,0,0,0,0,0,0,0,0,0]`
	for _, tc := range []struct {
		name, doc, want string
	}{
		{"crowded pipglobals, adjust", `{"workload":"empty",` + crowded + `}`, ""},
		{"crowded pipglobals, bridges2", `{"workload":"empty","env_policy":"bridges2",` + crowded + `}`, "Method"},
		{"placement past the machine", `{"workload":"empty","method":"tlsglobals","vps":2,"machine":{"nodes":1,"procs_per_node":1,"pes_per_proc":1},"placement":[0,5]}`, "Placement"},
		{"negative placement", `{"workload":"empty","method":"tlsglobals","vps":2,"machine":{"nodes":1,"procs_per_node":1,"pes_per_proc":1},"placement":[0,-1]}`, "Placement"},
		{"photran on C", `{"workload":"jacobi","method":"photran","vps":2,"machine":{"nodes":1,"procs_per_node":1,"pes_per_proc":1}}`, "Method"},
	} {
		var sp Spec
		if err := json.Unmarshal([]byte(tc.doc), &sp); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		verr, berr := sp.Validate(), buildUnchecked(&sp)
		if got := refusedOn(verr); got != tc.want || (berr != nil) != (tc.want != "") {
			t.Errorf("%s: Validate refuses on %q (%v), build: %v; want refusal on %q", tc.name, got, verr, berr, tc.want)
		}
		if tc.want != "" {
			continue
		}
		if _, osEnv := sp.env(); !osEnv.PatchedGlibc {
			t.Errorf("%s: 14 ranks placed in one process did not get the patched glibc", tc.name)
		}
		if _, _, err := sp.Execute(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}
