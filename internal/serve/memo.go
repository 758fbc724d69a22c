package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"provirt/internal/scenario"
)

// memoWays is how many entries share a memo set.
const memoWays = 8

// memoSets is how many sets the server's memo has: MaxPoints entries.
const memoSets = scenario.MaxPoints / memoWays

// digest is a SHA-256: a memo key (of a point's bytes) or value (a
// point's content hash, binary).
type digest = [sha256.Size]byte

// memo remembers request points' content hashes by the SHA-256 of
// their bytes, so a point whose bytes were seen before is resolved
// without being decoded, validated or hashed. Same bytes, same Spec: a
// point enters the memo only after its bytes decoded, validated and
// hashed. It is a fixed table of sets of memoWays entries, a key's set
// chosen by its leading bytes and, within a set, the least recently
// used entry replaced: allocated once, never grown, 64 bytes of key and
// value and 8 of recency an entry (about 290 KB for the server's). The
// mutex covers one set's probe.
type memo struct {
	mu    sync.Mutex
	sets  []memoSet
	clock uint64
}

type memoSet struct {
	keys, sums [memoWays]digest
	used       [memoWays]uint64 // clock at the entry's last use; 0: empty
}

func newMemo(sets int) *memo { return &memo{sets: make([]memoSet, sets)} }

func (m *memo) set(key *digest) *memoSet {
	return &m.sets[binary.LittleEndian.Uint64(key[:])%uint64(len(m.sets))]
}

// get returns the content hash remembered for the point bytes whose
// SHA-256 is key.
func (m *memo) get(key *digest) (digest, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.set(key)
	for w := range s.keys {
		if s.used[w] != 0 && s.keys[w] == *key {
			m.clock++
			s.used[w] = m.clock
			return s.sums[w], true
		}
	}
	return digest{}, false
}

// put remembers sum as the content hash of the point bytes whose
// SHA-256 is key, in place of the least recently used entry of its set.
func (m *memo) put(key, sum *digest) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.set(key)
	victim := 0
	for w := range s.keys {
		if s.used[w] != 0 && s.keys[w] == *key {
			victim = w
			break
		}
		if s.used[w] < s.used[victim] {
			victim = w
		}
	}
	m.clock++
	s.keys[victim], s.sums[victim], s.used[victim] = *key, *sum, m.clock
}
