package core_test

import (
	"testing"

	"provirt/internal/workloads/adcirc"
)

// BenchmarkPIEglobalsSetup is the privatization step of a world build
// as every PIEglobals world takes it: the adcirc image, whose layout and
// frozen data segment are built once per process, loaded once into a
// process and duplicated into 8 ranks, pointer scan included.
func BenchmarkPIEglobalsSetup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pieSetup(b, adcirc.Image(), 8)
	}
}
