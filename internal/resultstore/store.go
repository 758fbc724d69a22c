// Package resultstore is the content-addressed result cache behind the
// experiment server: an on-disk store of opaque payloads keyed by
// (kind, content hash) and partitioned by code version, fronted by a
// bounded in-memory LRU index.
//
// The store exists because the simulation is deterministic: a Spec's
// hash fully identifies its output for one build of the code, so a
// result computed once never needs computing again. The code version
// partitions the keyspace instead of invalidating it — results from an
// old build stay on disk (useful for cross-version diffing) but are
// never served for a new one.
//
// Durability and concurrency discipline:
//
//   - Writes are atomic: payload goes to a temp file in the target
//     directory, is synced, then renamed over the final path. Readers
//     therefore never observe a half-written entry under POSIX rename
//     semantics; a crash leaves at worst an orphaned temp file.
//   - Loads are corruption-tolerant: every entry opens with a header
//     line carrying its hash, the payload length and SHA-256, and a file
//     is served only if that line is exactly what Put writes for the
//     payload that follows. Anything else is counted
//     (resultstore_corrupt_skipped_total) and treated as a miss — never
//     a panic, never served.
//   - Locking follows the short-critical-section discipline the Go
//     optimistic-concurrency study recommends: the mutex guards only
//     the map/LRU index; all file I/O and hashing happen outside it,
//     so concurrent readers never serialize behind the disk.
package resultstore

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"
)

// DefaultMaxEntries bounds the in-memory index when Open is given no
// explicit capacity.
const DefaultMaxEntries = 1024

// magic leads every entry file; the version number guards the framing
// format itself.
const magic = "provirt-result 1"

// appendHeader appends the entry file's first line for payload under
// hash: magic, hash, payload length, and the payload's SHA-256.
func appendHeader(dst []byte, hash string, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	dst = append(append(append(dst, magic...), ' '), sanitize(hash)...)
	dst = strconv.AppendInt(append(dst, ' '), int64(len(payload)), 10)
	dst = hex.AppendEncode(append(dst, ' '), sum[:])
	return append(dst, '\n')
}

// CodeVersion identifies the running build for cache partitioning. A
// clean build keeps the VCS revision stamped into it. A build from a
// modified tree is "<rev>+dirty.<digest>" and an unstamped one (go run,
// go test, -buildvcs=false) "dev.<digest>", where digest is the first 12
// hex digits of the SHA-256 of the running executable: two edits of one
// commit never share a partition. It is computed once per process.
var CodeVersion = sync.OnceValue(func() string {
	var rev, modified string
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	switch {
	case rev == "":
		return "dev." + executableDigest()
	case modified == "true":
		return rev + "+dirty." + executableDigest()
	}
	return rev
})

// executableDigest is the first 12 hex digits of the running binary's
// SHA-256. A binary that cannot be read gets a partition of its own.
func executableDigest() string {
	h := sha256.New()
	path, err := os.Executable()
	if err == nil {
		var f *os.File
		if f, err = os.Open(path); err == nil {
			_, err = io.Copy(h, f)
			f.Close()
		}
	}
	if err != nil {
		return "t" + strconv.FormatInt(time.Now().UnixNano(), 16)
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}

// Store is one version-partition of the on-disk cache plus its
// in-memory LRU index. Methods are safe for concurrent use.
type Store struct {
	dir        string // version-specific root directory
	maxEntries int

	// mu guards exactly the three index fields below — never file I/O.
	mu    sync.Mutex
	byKey map[key]*list.Element // -> *entry
	lru   *list.List            // front = most recently used
}

// key addresses one entry.
type key struct{ kind, hash string }

// entry is one cached payload in the memory index.
type entry struct {
	key     key
	payload []byte
}

// Open returns the store rooted at dir for the given code version,
// creating directories as needed. maxEntries bounds the in-memory
// index (<= 0 selects DefaultMaxEntries); the disk is unbounded and
// never evicted.
func Open(dir, version string, maxEntries int) (*Store, error) {
	if version == "" {
		version = "dev"
	}
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	root := filepath.Join(dir, sanitize(version))
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	return &Store{
		dir:        root,
		maxEntries: maxEntries,
		byKey:      make(map[key]*list.Element),
		lru:        list.New(),
	}, nil
}

// sanitize maps an arbitrary token onto a safe path segment; a token
// that already is one comes back as is (strings.Map does not copy it).
func sanitize(s string) string {
	if s == "" {
		return "_"
	}
	return strings.Map(func(c rune) rune {
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '.' || c == '-' || c == '_' {
			return c
		}
		return '_'
	}, s)
}

// path places an entry on disk: kind partitions the namespace (point
// results vs run manifests), the hash's leading byte fans entries
// across subdirectories so no single directory grows unboundedly.
func (s *Store) path(kind, hash string) string {
	kind = sanitize(kind)
	hash = sanitize(hash)
	shard := "00"
	if len(hash) >= 2 {
		shard = hash[:2]
	}
	return filepath.Join(s.dir, kind, shard, hash+".res")
}

// Get returns the payload stored under (kind, hash), consulting the
// memory index first and falling back to disk. The returned bytes are
// shared — callers must treat them as read-only. ok is false on a
// miss, including entries that failed the corruption check.
func (s *Store) Get(kind, hash string) (payload []byte, ok bool) {
	k := key{kind, hash}
	s.mu.Lock()
	if el, hit := s.byKey[k]; hit {
		s.lru.MoveToFront(el)
		p := el.Value.(*entry).payload
		s.mu.Unlock()
		return p, true
	}
	s.mu.Unlock()

	// Disk read and verification happen outside the lock.
	payload, ok = s.load(s.path(kind, hash), hash)
	if !ok {
		return nil, false
	}
	s.insert(k, payload)
	return payload, true
}

// Put stores payload under (kind, hash): atomic write-then-rename on
// disk, then index insertion. The store keeps a reference to payload;
// callers must not mutate it afterwards.
func (s *Store) Put(kind, hash string, payload []byte) error {
	puts.Inc()
	path := s.path(kind, hash)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	_, err = tmp.Write(appendHeader(nil, hash, payload))
	if err == nil {
		_, err = tmp.Write(payload)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultstore: %w", err)
	}
	s.insert(key{kind, hash}, payload)
	return nil
}

// insert adds (or refreshes) an index entry and evicts past capacity.
func (s *Store) insert(k key, payload []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, hit := s.byKey[k]; hit {
		el.Value.(*entry).payload = payload
		s.lru.MoveToFront(el)
		return
	}
	s.byKey[k] = s.lru.PushFront(&entry{key: k, payload: payload})
	for s.lru.Len() > s.maxEntries {
		back := s.lru.Back()
		s.lru.Remove(back)
		delete(s.byKey, back.Value.(*entry).key)
		evictions.Inc()
	}
}

// Len reports the number of entries in the memory index.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// load reads and verifies one entry file: it is served iff its first
// line is exactly appendHeader(wantHash, rest). Anything else — bad magic,
// wrong hash, short payload, checksum mismatch, a framing Put never
// writes — is a miss; corruption (as opposed to plain absence) is
// counted.
func (s *Store) load(path, wantHash string) ([]byte, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false // plain miss: the entry was never written
	}
	var want [192]byte // a 64-digit hash's header fits
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 || !bytes.Equal(data[:nl+1], appendHeader(want[:0], wantHash, data[nl+1:])) {
		corrupt.Inc()
		return nil, false
	}
	return data[nl+1:], true
}
