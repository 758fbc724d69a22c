// Package provirt is a Go reproduction of "Runtime Techniques for
// Automatic Process Virtualization" (Ramos, White, Bhosale, Kale; ICPP
// Workshops '22): an Adaptive-MPI-like runtime whose MPI ranks are
// migratable user-level threads, with the paper's privatization methods
// — Swapglobals, TLSglobals, -fmpc-privatize, PIPglobals, FSglobals,
// and PIEglobals — implemented as strategies over a synthetic ELF/PIE
// process model on a deterministic discrete-event cluster simulator.
//
// See README.md for a guided tour, DESIGN.md for the system inventory,
// and EXPERIMENTS.md for paper-vs-measured results. internal/harness
// regenerates every table and figure of the paper's evaluation and
// pins their bytes in testdata/experiments.golden; cmd/privbench prints
// them (-experiment=list enumerates the registry); bench/ is the
// host-cost benchmark. Every point — a figure's, the server's, or the
// one `privbench -spec` reads — is an internal/scenario Spec run by
// Spec.Execute, under explicit harness options and no package-level
// knobs.
package provirt
