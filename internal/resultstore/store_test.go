package resultstore

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"provirt/internal/obs"
)

func TestCodeVersionNonEmpty(t *testing.T) {
	if CodeVersion() == "" {
		t.Fatal("empty code version")
	}
}

// TestCodeVersionPartitionsBuilds builds testdata/codeversion twice,
// unstamped and differing in one linked string: the two binaries report
// different versions, each the same on every call and every run.
func TestCodeVersionPartitionsBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two binaries")
	}
	dir := t.TempDir()
	var versions []string
	for _, stamp := range []string{"a", "b"} {
		bin := filepath.Join(dir, stamp)
		build := exec.Command("go", "build", "-buildvcs=false", "-ldflags", "-X main.stamp="+stamp, "-o", bin, "./testdata/codeversion")
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("go build: %v\n%s", err, out)
		}
		var runs []string
		for range 2 {
			out, err := exec.Command(bin).Output()
			if err != nil {
				t.Fatal(err)
			}
			f := strings.Fields(string(out))
			if len(f) != 3 || f[0] != stamp || f[1] != f[2] || !strings.HasPrefix(f[1], "dev.") {
				t.Fatalf("stamp %s printed %q, want the stamp and one dev.<digest> twice", stamp, out)
			}
			runs = append(runs, f[1])
		}
		if runs[0] != runs[1] {
			t.Fatalf("stamp %s: version %s, then %s on a second run", stamp, runs[0], runs[1])
		}
		versions = append(versions, runs[0])
	}
	if versions[0] == versions[1] {
		t.Fatalf("two different builds share code version %s", versions[0])
	}
}

// open opens the store at dir and closes it when the test ends.
func open(t testing.TB, dir string, maxEntries int) *Store {
	t.Helper()
	st, err := Open(dir, "v1", maxEntries)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func TestPutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := open(t, dir, 8)
	payload := []byte(`{"row":42}`)
	if err := st.Put("pt", "abc123", payload); err != nil {
		t.Fatal(err)
	}
	got, ok := st.Get("pt", "abc123")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("memory get: ok=%v payload=%q", ok, got)
	}

	// A record longer than the scan's 64 KiB buffer, like a large run
	// manifest, and one after it.
	big := bytes.Repeat([]byte("m"), 200<<10)
	if err := st.Put("run", "big", big); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("pt", "after", payload); err != nil {
		t.Fatal(err)
	}

	// A fresh store over the same directory must hit disk.
	cold := open(t, dir, 8)
	for k, want := range map[key][]byte{{"pt", "abc123"}: payload, {"run", "big"}: big, {"pt", "after"}: payload} {
		if got, ok := cold.Get(k.kind, k.hash); !ok || !bytes.Equal(got, want) {
			t.Fatalf("disk get %v: ok=%v, %d bytes", k, ok, len(got))
		}
	}

	// The partition is one log: no entry files, no temp files.
	var files []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "v1", logName); len(files) != 1 || files[0] != want {
		t.Fatalf("partition holds %q, want exactly %s", files, want)
	}
}

func TestVersionPartitions(t *testing.T) {
	dir := t.TempDir()
	st1 := open(t, dir, 8)
	st2, err := Open(dir, "v2", 8)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if err := st1.Put("pt", "k", []byte("old")); err != nil {
		t.Fatal(err)
	}
	if _, ok := st2.Get("pt", "k"); ok {
		t.Fatal("v2 store served a v1 result")
	}
}

func TestKindPartitions(t *testing.T) {
	st := open(t, t.TempDir(), 8)
	if err := st.Put("pt", "k", []byte("point")); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get("run", "k"); ok {
		t.Fatal("run namespace served a point result")
	}
}

// A key is stored under the tokens it was given, never under a
// sanitized spelling that another key shares: Put refuses a kind or
// hash that is not a safe token, and such a key is a miss on disk as
// in memory.
func TestUnsafeKeysAreRefusedNotAliased(t *testing.T) {
	dir := t.TempDir()
	st := open(t, dir, 8)
	for _, k := range []key{{"pt", "a/b"}, {"p?t", "h"}, {"", "h"}, {"pt", ""}, {"pt", strings.Repeat("a", maxToken+1)}} {
		if err := st.Put(k.kind, k.hash, []byte("p")); err == nil {
			t.Errorf("Put(%q, %q) accepted an unsafe key", k.kind, k.hash)
		}
	}
	if err := st.Put("p_t", "h", []byte("p")); err != nil {
		t.Fatal(err)
	}
	cold := open(t, dir, 8)
	for _, k := range []key{{"pt", "a_b"}, {"pt", "a/b"}, {"p?t", "h"}} {
		if got, ok := cold.Get(k.kind, k.hash); ok {
			t.Errorf("Get(%q, %q) on disk served %q", k.kind, k.hash, got)
		}
	}
}

// A memory hit is a map probe and a list move: it allocates nothing,
// and neither does checking that a safe token is one.
func TestMemoryHitAllocatesNothing(t *testing.T) {
	st := open(t, t.TempDir(), 8)
	hash := fmt.Sprintf("%064x", 7)
	if err := st.Put("pt", hash, []byte("point")); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { st.Get("pt", hash) }); n != 0 {
		t.Errorf("memory hit: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { sanitize(hash) }); n != 0 {
		t.Errorf("sanitize of a safe token: %v allocations, want 0", n)
	}
}

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// A disk hit reads and checks its record into one new buffer, the
// payload, and allocates nothing else: the header is read and rebuilt
// on the stack, and the entry that becomes resident is already indexed,
// linked into the LRU through its own fields. Two records alternate in
// a store that holds one payload, so every Get and Lookup is a disk hit.
func TestDiskHitAllocatesItsPayload(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates in file reads")
	}
	st := open(t, t.TempDir(), 1)
	a, b := fmt.Sprintf("%064x", 1), fmt.Sprintf("%064x", 2)
	payload := bytes.Repeat([]byte("p"), 4096) // a size class of its own
	for _, h := range []string{a, b} {
		if err := st.Put("pt", h, payload); err != nil {
			t.Fatal(err)
		}
	}
	bh := []byte(b)
	hits := func() {
		if p, ok := st.Get("pt", a); !ok || len(p) != len(payload) {
			t.Fatal("Get missed a stored record")
		}
		if p, ok := st.Lookup("pt", bh); !ok || len(p) != len(payload) {
			t.Fatal("Lookup missed a stored record")
		}
	}
	hits()
	if n := testing.AllocsPerRun(100, hits); n != 2 {
		t.Errorf("two disk hits: %v allocations, want 2", n)
	}
	// TotalAlloc counts the whole process, so another goroutine of the
	// test binary allocating during a round only adds bytes to it. The
	// smallest of several rounds is this loop's own: an extra
	// allocation of the store's would show in every round.
	const runs, rounds = 100, 5
	least := uint64(math.MaxUint64)
	for range rounds {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			hits()
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if want := uint64(runs * 2 * len(payload)); least != want {
		t.Errorf("%d disk hits allocated at least %d B in each of %d rounds, want their payloads' %d B", 2*runs, least, rounds, want)
	}
}

// The appended header is the fmt-formatted one, and an unsafe version
// is mapped rune by rune.
func TestHeaderAndSanitize(t *testing.T) {
	for _, hash := range []string{"h", fmt.Sprintf("%064x", 1<<40)} {
		for _, payload := range []string{"", `{"row":1}`} {
			if got, want := string(appendHeader(nil, "pt", hash, []byte(payload))), header("pt", hash, []byte(payload)); got != want {
				t.Errorf("appendHeader(%q, %q) = %q, want %q", hash, payload, got, want)
			}
		}
	}
	for in, want := range map[string]string{"": "_", "ab-_.9": "ab-_.9", "a/b": "a_b", "é": "_", "a b\x00": "a_b_"} {
		if got := sanitize(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestMissOnAbsentIsNotCorrupt(t *testing.T) {
	reg := obs.NewRegistry()
	EnableObs(reg)
	defer EnableObs(nil)
	st := open(t, t.TempDir(), 8)
	if _, ok := st.Get("pt", "nothere"); ok {
		t.Fatal("hit on absent key")
	}
	if corrupt.Value() != 0 {
		t.Fatalf("plain miss counted as corruption: %d", corrupt.Value())
	}
}

// A record damaged in the log is skipped with a counted metric, never a
// panic, and never served — by a store opened after the damage, which
// skips it while indexing, and by one opened before, whose read of the
// span no longer verifies — and the record after it is still served.
func TestCorruptEntriesSkippedAndCounted(t *testing.T) {
	reg := obs.NewRegistry()
	EnableObs(reg)
	defer EnableObs(nil)

	payload := []byte(`{"row":1}`)
	corruptions := []struct {
		name   string
		mutate func(rec []byte) []byte
	}{
		{"garbage", func([]byte) []byte { return []byte("not a result file") }},
		// The record's extent holds no data: what a crash leaves when the
		// log grew but its blocks were never written.
		{"empty", func(rec []byte) []byte { return make([]byte, len(rec)) }},
		{"truncated-payload", func(rec []byte) []byte { return rec[:len(rec)-3] }},
		{"flipped-byte", func(rec []byte) []byte {
			rec = bytes.Clone(rec)
			rec[len(rec)-1] ^= 0xff
			return rec
		}},
		{"header-only", func(rec []byte) []byte { return rec[:bytes.IndexByte(rec, '\n')+1] }},
	}
	for _, c := range corruptions {
		dir := t.TempDir()
		st := open(t, dir, 8)
		for _, hash := range []string{"victim", "after"} {
			if err := st.Put("pt", hash, payload); err != nil {
				t.Fatalf("%s: put: %v", c.name, err)
			}
		}
		warm := open(t, dir, 8) // indexed before the damage, nothing resident
		path := filepath.Join(dir, "v1", logName)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		n := len(header("pt", "victim", payload)) + len(payload)
		if err := os.WriteFile(path, append(c.mutate(data[:n]), data[n:]...), 0o644); err != nil {
			t.Fatal(err)
		}

		before := corrupt.Value()
		if got, ok := warm.Get("pt", "victim"); ok {
			t.Errorf("%s: a span that no longer verifies was served: %q", c.name, got)
		}
		if corrupt.Value() != before+1 {
			t.Errorf("%s: a failed span read counted %d, want 1", c.name, corrupt.Value()-before)
		}

		before = corrupt.Value()
		cold := open(t, dir, 8)
		if got, ok := cold.Get("pt", "victim"); ok {
			t.Errorf("%s: corrupt record served: %q", c.name, got)
		}
		if corrupt.Value() != before+1 {
			t.Errorf("%s: corrupt counter moved %d, want 1", c.name, corrupt.Value()-before)
		}
		if got, ok := cold.Get("pt", "after"); !ok || !bytes.Equal(got, payload) {
			t.Errorf("%s: the record after the damage: ok=%v payload=%q", c.name, ok, got)
		}
	}
}

func TestLRUEvictionCountsAndKeepsDisk(t *testing.T) {
	reg := obs.NewRegistry()
	EnableObs(reg)
	defer EnableObs(nil)

	st := open(t, t.TempDir(), 2)
	for i := 0; i < 3; i++ {
		if err := st.Put("pt", fmt.Sprintf("h%d", i), []byte(fmt.Sprintf("p%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if st.Len() != 2 {
		t.Fatalf("index length %d, want 2", st.Len())
	}
	if Evictions() != 1 {
		t.Fatalf("evictions %d, want 1", Evictions())
	}
	// The evicted entry (h0, least recently used) reloads from disk.
	got, ok := st.Get("pt", "h0")
	if !ok || string(got) != "p0" {
		t.Fatalf("evicted entry lost: ok=%v payload=%q", ok, got)
	}
}

func TestConcurrentPutGet(t *testing.T) {
	st := open(t, t.TempDir(), 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 32; i++ {
				hash := fmt.Sprintf("h%d", (g+i)%24)
				want := []byte("payload-" + hash)
				if err := st.Put("pt", hash, want); err != nil {
					t.Error(err)
					return
				}
				if got, ok := st.Get("pt", hash); ok && !bytes.Equal(got, want) {
					t.Errorf("got %q, want %q", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// A failed fsync may have dropped pages that the next one on the same
// file reports clean, so the first failed fsync fails every Put after
// it: of eight puts made one after another, whose third fsync fails,
// exactly two return nil and are served, and nothing is written after
// the failure. The puts are sequential so that each takes an fsync of
// its own; concurrent ones share them (TestConcurrentPutsShareAnFsync).
func TestFailedFsyncFailsEveryLaterPut(t *testing.T) {
	var fsyncs atomic.Int32
	defer func(orig func(*os.File) error) { syncFile = orig }(syncFile)
	syncFile = func(f *os.File) error {
		if fsyncs.Add(1) == 3 {
			return errors.New("injected fsync failure")
		}
		return f.Sync()
	}
	dir := t.TempDir()
	st := open(t, dir, 16)
	payload := []byte(`{"row":1}`)
	errs := make([]error, 8)
	for i := range errs {
		errs[i] = st.Put("pt", fmt.Sprintf("h%d", i), payload)
	}
	acked := 0
	for i, err := range errs {
		if _, ok := st.Get("pt", fmt.Sprintf("h%d", i)); ok != (err == nil) {
			t.Errorf("put %d returned %v, yet Get gives ok=%v", i, err, ok)
		}
		if err == nil {
			acked++
		}
	}
	if acked != 2 || fsyncs.Load() != 3 {
		t.Fatalf("%d puts returned nil over %d fsyncs, want 2 over 3", acked, fsyncs.Load())
	}
	path := filepath.Join(dir, "v1", logName)
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("pt", "later", payload); err == nil {
		t.Fatal("a put after the failed fsync returned nil")
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size() || fsyncs.Load() != 3 {
		t.Fatalf("a put after the failure reached the log (size %d -> %d, %d fsyncs)", before.Size(), after.Size(), fsyncs.Load())
	}
}

// sharedFsync makes eight puts of one record size in a fresh store, the
// first alone and seven more once its fsync has begun, which then waits
// (at most 5 s) until all eight records are written. The fsync numbered
// fail, counting from 1, fails. It returns the store, its log's path,
// each put's error, and the number of fsyncs the puts took.
func sharedFsync(t *testing.T, fail int32) (st *Store, path string, errs []error, fsyncs int32) {
	t.Helper()
	payload := []byte(`{"row":1}`)
	all := int64(8 * (len(header("pt", "h0", payload)) + len(payload)))
	var n atomic.Int32
	entered := make(chan struct{})
	defer func(orig func(*os.File) error) { syncFile = orig }(syncFile)
	syncFile = func(f *os.File) error {
		i := n.Add(1)
		if i == 1 {
			close(entered)
			for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
				if fi, err := f.Stat(); err != nil || fi.Size() >= all {
					break
				}
			}
		}
		if i == fail {
			return errors.New("injected fsync failure")
		}
		return f.Sync()
	}
	dir := t.TempDir()
	st = open(t, dir, 16)
	errs = make([]error, 8)
	var wg sync.WaitGroup
	put := func(i int) {
		defer wg.Done()
		errs[i] = st.Put("pt", fmt.Sprintf("h%d", i), payload)
	}
	wg.Add(1)
	go put(0)
	<-entered
	for i := 1; i < len(errs); i++ {
		wg.Add(1)
		go put(i)
	}
	wg.Wait()
	return st, filepath.Join(dir, "v1", logName), errs, n.Load()
}

// Puts whose records are written while an fsync runs share the next
// one: eight puts, seven of them written during the first fsync, take
// two fsyncs between them, and every one is served.
func TestConcurrentPutsShareAnFsync(t *testing.T) {
	st, _, errs, fsyncs := sharedFsync(t, 0)
	for i, err := range errs {
		if _, ok := st.Get("pt", fmt.Sprintf("h%d", i)); err != nil || !ok {
			t.Errorf("put %d returned %v, and Get gives ok=%v", i, err, ok)
		}
	}
	if fsyncs != 2 {
		t.Fatalf("8 puts took %d fsyncs, want 2: the 7 written during the first share the second", fsyncs)
	}
}

// A failed fsync fails every put it covered: when the second fsync,
// shared by the seven puts written during the first, fails, the first
// put alone returns nil and is served, the seven return an error and are
// not served, and a later put fails without writing.
func TestFailedSharedFsyncFailsEveryPutItCovered(t *testing.T) {
	st, path, errs, fsyncs := sharedFsync(t, 2)
	for i, err := range errs {
		_, ok := st.Get("pt", fmt.Sprintf("h%d", i))
		if (err == nil) != (i == 0) || ok != (i == 0) {
			t.Errorf("put %d returned %v and Get gives ok=%v; want only put 0 acked and served", i, err, ok)
		}
	}
	if fsyncs != 2 {
		t.Fatalf("8 puts took %d fsyncs, want 2", fsyncs)
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("pt", "later", []byte(`{"row":1}`)); err == nil {
		t.Fatal("a put after the failed fsync returned nil")
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size() {
		t.Fatalf("a put after the failure reached the log (size %d -> %d)", before.Size(), after.Size())
	}
}

// header is the record header as fmt writes it: the oracle appendHeader
// is held to, and which FuzzStoreLoad serves records against.
func header(kind, hash string, payload []byte) string {
	return fmt.Sprintf("%s %s %s %d %x\n", magic, kind, hash, len(payload), sha256.Sum256(payload))
}

// checkIndex holds every record st indexed to the log's bytes: its span
// is byte for byte what Put writes, and Get serves its payload.
func checkIndex(t *testing.T, st *Store, log []byte) {
	t.Helper()
	spans := map[key]span{}
	for k, e := range st.index {
		spans[k] = e.span
	}
	for k, sp := range spans {
		if sp.off < 0 || sp.off+int64(sp.hdr+sp.n) > int64(len(log)) {
			t.Fatalf("%v indexed at %+v, past the %d-byte log", k, sp, len(log))
		}
		rec := log[sp.off : sp.off+int64(sp.hdr+sp.n)]
		payload := rec[sp.hdr:]
		if string(rec) != header(k.kind, k.hash, payload)+string(payload) {
			t.Fatalf("indexed %q, which Put would not write", rec)
		}
		if got, ok := st.Get(k.kind, k.hash); !ok || !bytes.Equal(got, payload) {
			t.Fatalf("%v indexed but Get gave ok=%v %q", k, ok, got)
		}
	}
}

// FuzzStoreLoad puts arbitrary bytes where the log lives, then Puts one
// record. Open and Get never panic, a record is indexed and served only
// if it is byte for byte what Put writes, and the record appended after
// the garbage is served by a store reopened over it.
func FuzzStoreLoad(f *testing.F) {
	payload := []byte(`{"row":1}`)
	good := header("pt", "h", payload) + string(payload)
	nl := strings.IndexByte(good, '\n')
	flipped := []byte(good)
	flipped[len(flipped)-1] ^= 0xff
	for _, seed := range []string{
		good,
		"not a result file",
		"",
		good[:len(good)-3],
		string(flipped),
		good[:nl+1],
		strings.Replace(good, " 9 ", " +9 ", 1),
		strings.Replace(good, " 9 ", " 09 ", 1),
		strings.Replace(good, " 9 ", "\t9 ", 1),
		strings.Replace(good, " h ", "  h ", 1),
		"x x pt h 9223372036854775807 x\n", // a length that overflows the header's
		magic + " pt h 9223372036854775807 x\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, garbage []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "v1", logName)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, garbage, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir, "v1", 8)
		if err != nil {
			t.Fatal(err)
		}
		checkIndex(t, st, garbage)
		appended := []byte(`{"row":2}`)
		err = st.Put("pt", "h", appended)
		st.Close()
		if err != nil {
			t.Fatal(err)
		}

		log, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		st = open(t, dir, 8)
		checkIndex(t, st, log)
		if got, ok := st.Get("pt", "h"); !ok || !bytes.Equal(got, appended) {
			t.Fatalf("the record appended after %q: ok=%v payload=%q", garbage, ok, got)
		}
	})
}
