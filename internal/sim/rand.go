package sim

// RNG is a small, fast, deterministic pseudo-random number generator
// (xoshiro256** by Blackman and Vigna). The reproduction avoids math/rand's
// global state so that independent simulation components can own independent
// streams and a run never depends on package initialization order.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed via splitmix64, which guards
// against poor low-entropy seeds such as 0 and 1.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value in the stream.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Fork derives an independent stream labelled by id. Two forks with distinct
// ids produce uncorrelated streams regardless of draw order on the parent.
func (r *RNG) Fork(id uint64) *RNG {
	return NewRNG(r.s[0] ^ rotl(id+0x632be59bd9b4e019, 23))
}
