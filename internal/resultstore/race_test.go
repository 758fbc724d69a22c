//go:build race

package resultstore

// Under the race detector a file read allocates, so an allocation count
// measures the detector, not the store.
func init() { raceEnabled = true }
