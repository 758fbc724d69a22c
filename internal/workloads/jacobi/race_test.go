//go:build race

package jacobi_test

// Under the race detector allocation sizes measure the detector's
// instrumentation, not the code under test.
func init() { raceEnabled = true }
