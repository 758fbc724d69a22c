package resultstore

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

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

func TestPutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, "v1", 8)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"row":42}`)
	if err := st.Put("pt", "abc123", payload); err != nil {
		t.Fatal(err)
	}
	got, ok := st.Get("pt", "abc123")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("memory get: ok=%v payload=%q", ok, got)
	}

	// A fresh store over the same directory must hit disk.
	st2, err := Open(dir, "v1", 8)
	if err != nil {
		t.Fatal(err)
	}
	got, ok = st2.Get("pt", "abc123")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("disk get: ok=%v payload=%q", ok, got)
	}

	// No temp files left behind by the write-then-rename protocol.
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasPrefix(d.Name(), ".tmp-") {
			t.Errorf("orphaned temp file %s", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVersionPartitions(t *testing.T) {
	dir := t.TempDir()
	st1, _ := Open(dir, "v1", 8)
	st2, _ := Open(dir, "v2", 8)
	if err := st1.Put("pt", "k", []byte("old")); err != nil {
		t.Fatal(err)
	}
	if _, ok := st2.Get("pt", "k"); ok {
		t.Fatal("v2 store served a v1 result")
	}
}

func TestKindPartitions(t *testing.T) {
	st, _ := Open(t.TempDir(), "v1", 8)
	if err := st.Put("pt", "k", []byte("point")); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get("run", "k"); ok {
		t.Fatal("run namespace served a point result")
	}
}

// A memory-index hit is a map probe and a list move: it allocates
// nothing, and neither does naming a safe token's path segment.
func TestMemoryHitAllocatesNothing(t *testing.T) {
	st, _ := Open(t.TempDir(), "v1", 8)
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

// The appended header is the fmt-formatted one, and an unsafe token is
// mapped rune by rune.
func TestHeaderAndSanitize(t *testing.T) {
	for _, hash := range []string{"h", fmt.Sprintf("%064x", 1<<40), "a/b", "", "é.."} {
		for _, payload := range []string{"", `{"row":1}`} {
			if got, want := string(appendHeader(nil, hash, []byte(payload))), header(hash, []byte(payload)); got != want {
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
	st, _ := Open(t.TempDir(), "v1", 8)
	if _, ok := st.Get("pt", "nothere"); ok {
		t.Fatal("hit on absent key")
	}
	if corrupt.Value() != 0 {
		t.Fatalf("plain miss counted as corruption: %d", corrupt.Value())
	}
}

// Satellite: a truncated or garbage entry on disk is skipped with a
// counted metric, never a panic, and never served.
func TestCorruptEntriesSkippedAndCounted(t *testing.T) {
	reg := obs.NewRegistry()
	EnableObs(reg)
	defer EnableObs(nil)

	dir := t.TempDir()
	st, err := Open(dir, "v1", 8)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"row":1}`)

	corruptions := []struct {
		name   string
		mutate func(path string) error
	}{
		{"garbage", func(p string) error { return os.WriteFile(p, []byte("not a result file"), 0o644) }},
		{"empty", func(p string) error { return os.WriteFile(p, nil, 0o644) }},
		{"truncated-payload", func(p string) error {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			return os.WriteFile(p, data[:len(data)-3], 0o644)
		}},
		{"flipped-byte", func(p string) error {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			data[len(data)-1] ^= 0xff
			return os.WriteFile(p, data, 0o644)
		}},
		{"header-only", func(p string) error {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			nl := bytes.IndexByte(data, '\n')
			return os.WriteFile(p, data[:nl+1], 0o644)
		}},
	}
	for i, c := range corruptions {
		hash := fmt.Sprintf("hash%d", i)
		if err := st.Put("pt", hash, payload); err != nil {
			t.Fatalf("%s: put: %v", c.name, err)
		}
		path := st.path("pt", hash)
		if err := c.mutate(path); err != nil {
			t.Fatalf("%s: mutate: %v", c.name, err)
		}
		// Fresh store so the memory index doesn't mask the disk state.
		cold, err := Open(dir, "v1", 8)
		if err != nil {
			t.Fatal(err)
		}
		before := corrupt.Value()
		got, ok := cold.Get("pt", hash)
		if ok {
			t.Errorf("%s: corrupt entry served: %q", c.name, got)
		}
		if corrupt.Value() != before+1 {
			t.Errorf("%s: corrupt counter %d, want %d", c.name, corrupt.Value(), before+1)
		}
	}
}

func TestLRUEvictionCountsAndKeepsDisk(t *testing.T) {
	reg := obs.NewRegistry()
	EnableObs(reg)
	defer EnableObs(nil)

	st, err := Open(t.TempDir(), "v1", 2)
	if err != nil {
		t.Fatal(err)
	}
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
	st, err := Open(t.TempDir(), "v1", 16)
	if err != nil {
		t.Fatal(err)
	}
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

// header is the entry header as fmt writes it: the oracle appendHeader
// is held to, and which FuzzStoreLoad serves files against.
func header(hash string, payload []byte) string {
	return fmt.Sprintf("%s %s %d %x\n", magic, sanitize(hash), len(payload), sha256.Sum256(payload))
}

// FuzzStoreLoad writes arbitrary bytes where an entry lives. Get never
// panics, serves a file only if it is byte for byte what Put writes for
// the payload it returns, and never indexes a file it rejects.
func FuzzStoreLoad(f *testing.F) {
	payload := []byte(`{"row":1}`)
	good := header("h", payload) + string(payload)
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
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, file []byte) {
		st, err := Open(t.TempDir(), "v1", 8)
		if err != nil {
			t.Fatal(err)
		}
		path := st.path("pt", "h")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok := st.Get("pt", "h")
		switch {
		case ok && string(file) != header("h", got)+string(got):
			t.Fatalf("served %q from a file Put would not write: %q", got, file)
		case !ok && st.Len() != 0:
			t.Fatalf("rejected file entered the index")
		}
	})
}
