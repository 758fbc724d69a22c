// Package resultstore is the content-addressed result cache behind the
// experiment server: opaque payloads keyed by (kind, content hash),
// partitioned by code version, kept in one append-only log per
// partition and fronted by a bounded in-memory LRU of payloads.
//
// The store exists because the simulation is deterministic: a Spec's
// hash fully identifies its output for one build of the code, so a
// result computed once never needs computing again. The code version
// partitions the keyspace instead of invalidating it — results from an
// old build stay on disk (useful for cross-version diffing) but are
// never served for a new one.
//
// A partition is <dir>/<version>/results.log, records of a header line
// "provirt-result 2 <kind> <hash> <len> <sha256>" and the payload. Put
// returns, and serves its record, once an fsync begun after its write
// succeeds; concurrent puts share one. The first failed write or fsync
// fails every Put none covered and all later ones, as the next fsync can
// pass over lost pages. The log is never rewritten, so a crash loses only
// records whose Put had not returned. Open indexes each record exactly
// as Put writes it and counts (resultstore_corrupt_skipped_total) and
// skips anything else up to the next magic. A disk hit reads a record's
// header and payload and verifies them again. A Store sees the records
// present at its Open plus its own puts, not what another Store appends
// later: a partition wants one writing process. No mutex covers hashing,
// the index's no I/O, and a write's none of the fsync (the Go
// optimistic-concurrency study's short critical sections).
package resultstore

import (
	"bufio"
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"errors"
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

// DefaultMaxEntries bounds the payloads held in memory when Open is
// given no explicit capacity.
const DefaultMaxEntries = 1024

const (
	magic     = "provirt-result 2" // the version number guards the framing
	logName   = "results.log"
	maxToken  = 255 // a kind's or hash's length: the file-name limit keys always met
	maxHeader = len(magic) + 2*(1+maxToken) + 1 + 20 + 1 + 2*sha256.Size + 1
)

// syncFile makes the log durable; tests wrap it.
var syncFile = (*os.File).Sync

// appendHeader appends the header line of payload's record.
func appendHeader(dst []byte, kind, hash string, payload []byte) []byte {
	return appendTail(append(appendKind(dst, kind), hash...), payload)
}

// appendKind appends a header's start, up to its hash.
func appendKind(dst []byte, kind string) []byte {
	return append(append(append(append(dst, magic...), ' '), kind...), ' ')
}

// appendTail appends a header's end, after its hash.
func appendTail(dst, payload []byte) []byte {
	sum := sha256.Sum256(payload)
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

// Store is one version partition's log plus its index. Methods are
// safe for concurrent use.
type Store struct {
	f          *os.File // the log, opened for append
	maxEntries int

	appendMu sync.Mutex // held across a record's write and the read of the log's end
	written  int64      // the log's end after the last write; guarded by appendMu
	failed   error      // the first failed write or fsync; guarded by appendMu
	syncMu   sync.Mutex // held across an fsync
	synced   int64      // the log length the last successful fsync covered; guarded by syncMu

	// mu guards exactly the index fields below.
	mu       sync.Mutex
	index    map[key]*entry
	lru      entry // the ring of entries whose payload is resident, most recent after it
	resident int   // entries on the ring
}

type key struct{ kind, hash string }

// span places a record in the log: offset, header and payload lengths.
type span struct {
	off    int64
	hdr, n int
}

// entry is one indexed record. While its payload is resident it is on
// the store's LRU ring, linked through prev and next; off it both are
// nil.
type entry struct {
	span       span
	payload    []byte
	prev, next *entry
}

// unlink takes e off the ring.
func (e *entry) unlink() {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

// linkAfter puts e on the ring after at.
func (e *entry) linkAfter(at *entry) {
	e.prev, e.next = at, at.next
	at.next.prev = e
	at.next = e
}

// Open returns the store rooted at dir for the given code version,
// creating directories and the log as needed, and indexes the log.
// maxEntries bounds the payloads held in memory (<= 0 selects
// DefaultMaxEntries); the log is never compacted.
func Open(dir, version string, maxEntries int) (*Store, error) {
	if version == "" {
		version = "dev"
	}
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	root := filepath.Join(dir, sanitize(version))
	err := os.MkdirAll(root, 0o755)
	var f *os.File
	if err == nil {
		f, err = os.OpenFile(filepath.Join(root, logName), os.O_RDWR|os.O_APPEND|os.O_CREATE, 0o644)
	}
	if err == nil { // the log's and the partition's directory entries
		err = errors.Join(syncDir(root), syncDir(dir))
	}
	s := &Store{f: f, maxEntries: maxEntries, index: make(map[key]*entry)}
	s.lru.prev, s.lru.next = &s.lru, &s.lru
	if err == nil {
		err = s.load()
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	return s, nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err == nil {
		err = errors.Join(d.Sync(), d.Close())
	}
	return err
}

// Close releases the log. The store must not be used afterwards.
func (s *Store) Close() error { return s.f.Close() }

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

// token reports whether s can be a kind or hash: a header splits back
// into the key Put was given, and no two keys share a spelling.
func token(s string) bool { return len(s) <= maxToken && sanitize(s) == s }

// Get returns the payload stored under (kind, hash), from memory or
// else from the log. The returned bytes are shared — callers must treat
// them as read-only. ok is false on a miss, including a record that no
// longer reads back as the one Put wrote (counted as corrupt).
func (s *Store) Get(kind, hash string) (payload []byte, ok bool) {
	s.mu.Lock()
	return found(s, s.index[key{kind, hash}], kind, hash)
}

// Lookup is Get with the hash as bytes: it allocates no string for them.
// The index is read here, not in found: a string(hash) converted inside
// a generic function is allocated.
func (s *Store) Lookup(kind string, hash []byte) (payload []byte, ok bool) {
	s.mu.Lock()
	return found(s, s.index[key{kind, string(hash)}], kind, hash)
}

// found returns the payload of e, the index entry of (kind, hash) or
// nil: resident, or read from the log. It is called with s.mu held and
// releases it.
func found[H string | []byte](s *Store, e *entry, kind string, hash H) (payload []byte, ok bool) {
	if e == nil || e.next != nil {
		return s.hit(e)
	}
	var want [maxHeader]byte
	return s.read(e, append(appendKind(want[:0], kind), hash...))
}

// hit returns the resident payload of e, if e is not nil, and makes it
// the most recently used. It is called with s.mu held and releases it;
// it allocates nothing.
func (s *Store) hit(e *entry) (payload []byte, ok bool) {
	defer s.mu.Unlock()
	if e == nil {
		return nil, false
	}
	e.unlink()
	e.linkAfter(&s.lru)
	return e.payload, true
}

// read loads e's record from the log, whose header must be keyed
// followed by the payload's length and checksum, and makes its payload
// resident. It is called with s.mu held and releases it; it allocates
// only the payload.
func (s *Store) read(e *entry, keyed []byte) (payload []byte, ok bool) {
	sp := e.span
	s.mu.Unlock()
	var hdr [maxHeader]byte
	payload = make([]byte, sp.n)
	_, err := s.f.ReadAt(hdr[:sp.hdr], sp.off)
	if err == nil {
		_, err = s.f.ReadAt(payload, sp.off+int64(sp.hdr))
	}
	if err != nil || !bytes.Equal(hdr[:sp.hdr], appendTail(keyed, payload)) {
		corrupt.Inc()
		return nil, false
	}
	s.mu.Lock()
	s.hold(e, sp, payload)
	s.mu.Unlock()
	return payload, true
}

// Put appends payload under (kind, hash) to the log and indexes it once
// an fsync covers it. kind and hash must be safe tokens. The store keeps
// a reference to payload; callers must not mutate it afterwards.
func (s *Store) Put(kind, hash string, payload []byte) error {
	puts.Inc()
	if !token(kind) || !token(hash) {
		return fmt.Errorf("resultstore: key (%q, %q) is not a pair of safe tokens", kind, hash)
	}
	rec := appendHeader(make([]byte, 0, maxHeader+len(payload)), kind, hash, payload)
	sp := span{hdr: len(rec), n: len(payload)}
	rec = append(rec, payload...)
	end, err := s.append(rec)
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	sp.off = end - int64(len(rec))
	k := key{kind, hash}
	s.mu.Lock()
	e := s.index[k]
	if e == nil {
		e = &entry{}
		s.index[k] = e
	}
	s.hold(e, sp, payload)
	s.mu.Unlock()
	return nil
}

// append writes rec at the log's end and, once an fsync covers it,
// returns the file's end, which another Store's appends also move.
func (s *Store) append(rec []byte) (end int64, err error) {
	s.appendMu.Lock()
	if err = s.failed; err == nil {
		if _, err = s.f.Write(rec); err == nil {
			end, err = s.f.Seek(0, io.SeekCurrent)
		}
		s.failed, s.written = err, end
	}
	s.appendMu.Unlock()
	if err != nil {
		return 0, err
	}
	return end, s.sync(end)
}

// sync returns once an fsync begun after the log reached end has
// succeeded, and fails if a write or fsync failed before one did.
func (s *Store) sync(end int64) error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	if s.synced >= end {
		return nil
	}
	s.appendMu.Lock()
	to, err := s.written, s.failed
	s.appendMu.Unlock()
	if err == nil {
		syncs.Inc()
		if err = syncFile(s.f); err == nil {
			s.synced = to
			return nil
		}
		s.appendMu.Lock()
		s.failed = cmp.Or(s.failed, err)
		s.appendMu.Unlock()
	}
	return err
}

// hold makes the indexed entry e the record at sp with its payload
// resident and most recently used, evicting the least recently used
// payloads past capacity. s.mu is held.
func (s *Store) hold(e *entry, sp span, payload []byte) {
	e.span, e.payload = sp, payload
	if e.next != nil {
		e.unlink()
	} else {
		s.resident++
	}
	e.linkAfter(&s.lru)
	for ; s.resident > s.maxEntries; s.resident-- {
		old := s.lru.prev
		old.unlink()
		old.payload = nil
		evictions.Inc()
	}
}

// Len reports the number of payloads resident in memory.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resident
}

// load indexes the log in one streaming pass through a 64 KiB buffer,
// grown only to hold a longer record. A run of bytes that holds no
// record Put writes is counted once and skipped up to the next magic.
func (s *Store) load() error {
	fi, err := s.f.Stat()
	if err != nil {
		return err
	}
	size, off, skipping := fi.Size(), int64(0), false
	sc := bufio.NewScanner(io.NewSectionReader(s.f, 0, size))
	sc.Buffer(make([]byte, 64<<10), int(size)+1)
	// Every step that advances yields a token: Scan stops at the first
	// step past EOF that yields none.
	sc.Split(func(data []byte, atEOF bool) (n int, _ []byte, _ error) {
		defer func() { off += int64(n) }()
		k, sp, err := record(data, size-off)
		switch {
		case err == nil:
			sp.off, skipping = off, false
			s.index[k] = &entry{span: sp}
			return sp.hdr + sp.n, data, nil
		case err == errShort && !atEOF, len(data) == 0:
			return 0, nil, nil
		}
		if !skipping {
			corrupt.Inc()
		}
		skipping = true
		switch i := bytes.Index(data[1:], []byte(magic)); {
		case i >= 0:
			return 1 + i, data, nil
		case atEOF:
			return len(data), data, nil
		}
		return max(len(data)-len(magic), 1), data, nil
	})
	for sc.Scan() {
	}
	return sc.Err()
}

var (
	errShort   = errors.New("data ends inside the record")
	errCorrupt = errors.New("not a record Put writes")
)

// record parses the record at data's start, at most remaining bytes
// long: errShort if data may hold only a prefix of it, errCorrupt
// unless its header is exactly what Put writes for the payload that
// follows.
func record(data []byte, remaining int64) (key, span, error) {
	nl := bytes.IndexByte(data[:min(len(data), maxHeader)], '\n')
	if nl < 0 && len(data) < maxHeader {
		return key{}, span{}, errShort
	}
	f := bytes.Split(data[:max(nl, 0)], []byte(" "))
	if len(f) != 6 || !bytes.HasPrefix(data, []byte(magic+" ")) {
		return key{}, span{}, errCorrupt
	}
	n, err := strconv.Atoi(string(f[4]))
	k, sp := key{string(f[2]), string(f[3])}, span{hdr: nl + 1, n: n}
	if err != nil || n < 0 || int64(n) > remaining-int64(sp.hdr) || !token(k.kind) || !token(k.hash) {
		return key{}, span{}, errCorrupt
	}
	if len(data) < sp.hdr+n {
		return key{}, span{}, errShort
	}
	var want [maxHeader]byte
	if !bytes.Equal(data[:sp.hdr], appendHeader(want[:0], k.kind, k.hash, data[sp.hdr:sp.hdr+n])) {
		return key{}, span{}, errCorrupt
	}
	return k, sp, nil
}
