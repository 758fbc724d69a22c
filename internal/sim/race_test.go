//go:build race

package sim

// Under the race detector sync.Pool drops a random share of what it is
// given, so a recycled queue is not always there to take.
func init() { raceEnabled = true }
