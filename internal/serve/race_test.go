//go:build race

package serve

// Under the race detector sync.Pool drops a quarter of what is put
// back, so pooled buffers are allocated again and a byte budget
// measures the detector, not the server.
func init() { raceEnabled = true }
