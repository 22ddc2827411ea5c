package plancache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"mcmpart/internal/faultinject"
)

func open(t *testing.T) *Store {
	t.Helper()
	st, err := Open(t.TempDir(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestRoundTrip(t *testing.T) {
	st := open(t)
	key := "g=abc|p=def|m=random|s=7"
	payload := []byte(`{"partition": [0, 1, 2]}`)
	if _, ok := st.Get(key); ok {
		t.Fatal("empty store must miss")
	}
	if err := st.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := st.Get(key)
	if !ok || string(got) != string(payload) {
		t.Fatalf("round trip: ok=%v got=%q", ok, got)
	}
	if st.writes.Value() != 1 || st.quarantined.Value() != 0 {
		t.Fatalf("writes %d, quarantined %d", st.writes.Value(), st.quarantined.Value())
	}

	// A second store over the same directory (the restart) serves the entry.
	st2, err := Open(st.dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	got, ok = st2.Get(key)
	if !ok || string(got) != string(payload) {
		t.Fatalf("restart read: ok=%v got=%q", ok, got)
	}
}

// TestConcurrentPuts is for -race: writers Put distinct keys into one
// store at once, each Put drawing its temp-file name from the store's
// sequence number, and every entry reads back afterwards.
func TestConcurrentPuts(t *testing.T) {
	st := open(t)
	const writers, perWriter = 8, 4
	key := func(w, i int) string { return fmt.Sprintf("writer-%d|entry-%d", w, i) }
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perWriter {
				if err := st.Put(key(w, i), []byte(key(w, i))); err != nil {
					t.Errorf("Put %s: %v", key(w, i), err)
				}
			}
		}()
	}
	wg.Wait()
	for w := range writers {
		for i := range perWriter {
			if got, ok := st.Get(key(w, i)); !ok || string(got) != key(w, i) {
				t.Errorf("Get %s: ok=%v got=%q", key(w, i), ok, got)
			}
		}
	}
	if n := st.writes.Value(); n != writers*perWriter {
		t.Fatalf("%d writes counted, want %d", n, writers*perWriter)
	}
}

// TestCorruptionQuarantined flips, truncates, and version-bumps an entry:
// every mutation must read as a miss, move the file aside, and never
// surface bytes.
func TestCorruptionQuarantined(t *testing.T) {
	key := "the-key"
	payload := []byte("the-payload-bytes-of-a-plan")
	mutations := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"bit flip in payload", func(b []byte) []byte { b[len(b)-3] ^= 0x40; return b }},
		{"bit flip in key", func(b []byte) []byte { b[53] ^= 0x01; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)-5] }},
		{"stale version", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[8:12], Version+1); return b }},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"empty file", func(b []byte) []byte { return nil }},
		{"length overflow", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[16:20], 1<<31); return b }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			st := open(t)
			if err := st.Put(key, payload); err != nil {
				t.Fatal(err)
			}
			path := st.path(key)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, m.mut(data), 0o644); err != nil {
				t.Fatal(err)
			}
			if got, ok := st.Get(key); ok {
				t.Fatalf("corrupt entry served: %q", got)
			}
			if st.quarantined.Value() != 1 {
				t.Fatalf("quarantined %d: corrupt entry not counted once", st.quarantined.Value())
			}
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("corrupt entry still live at %s", path)
			}
			if _, err := os.Stat(path + quarantineSuffix); err != nil {
				t.Fatalf("quarantine file missing: %v", err)
			}
			// The quarantined key behaves as a clean miss and can be rewritten.
			if err := st.Put(key, payload); err != nil {
				t.Fatal(err)
			}
			if got, ok := st.Get(key); !ok || string(got) != string(payload) {
				t.Fatalf("rewrite after quarantine: ok=%v got=%q", ok, got)
			}
		})
	}
}

// TestKeyMismatchQuarantined: an entry renamed onto another key's filename
// (or a would-be hash collision) must not be served.
func TestKeyMismatchQuarantined(t *testing.T) {
	st := open(t)
	if err := st.Put("key-a", []byte("payload-a")); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(st.path("key-a"), st.path("key-b")); err != nil {
		t.Fatal(err)
	}
	if got, ok := st.Get("key-b"); ok {
		t.Fatalf("mismatched key served: %q", got)
	}
	if st.quarantined.Value() != 1 {
		t.Fatalf("quarantined %d, want 1", st.quarantined.Value())
	}
}

// TestOversizedFileQuarantinedWithoutReading: a file larger than any entry
// Decode accepts is quarantined on its size alone — Get must not allocate
// the file's bytes to find out. The file is sparse, so it costs no disk.
func TestOversizedFileQuarantinedWithoutReading(t *testing.T) {
	st := open(t)
	key := "huge"
	if err := os.WriteFile(st.path(key), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(st.path(key), headerLen+maxEntryBytes+1); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, ok := st.Get(key)
	runtime.ReadMemStats(&after)
	if ok {
		t.Fatalf("oversized entry served (%d bytes)", len(got))
	}
	if st.quarantined.Value() != 1 {
		t.Fatalf("quarantined %d, want 1", st.quarantined.Value())
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("Get allocated %d bytes for an oversized file, want < 1 MiB", grew)
	}
}

func TestInjectedDiskFaults(t *testing.T) {
	st := open(t)
	boom := errors.New("disk on fire")
	faultinject.Enable(faultinject.NewSet(1,
		faultinject.Rule{Point: faultinject.PointDiskWrite, Fault: faultinject.Fault{Err: boom}, Every: 1},
	))
	defer faultinject.Disable()
	if err := st.Put("k", []byte("v")); !errors.Is(err, boom) {
		t.Fatalf("injected write fault not surfaced: %v", err)
	}
	if st.writeErrors.Value() != 1 {
		t.Fatalf("write errors %d, want 1", st.writeErrors.Value())
	}
	faultinject.Disable()
	if err := st.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(faultinject.NewSet(1,
		faultinject.Rule{Point: faultinject.PointDiskRead, Fault: faultinject.Fault{Err: boom}, Every: 1},
	))
	if _, ok := st.Get("k"); ok {
		t.Fatal("injected read fault must read as a miss")
	}
	faultinject.Disable()
	if got, ok := st.Get("k"); !ok || string(got) != "v" {
		t.Fatalf("entry must survive an injected read fault: ok=%v got=%q", ok, got)
	}
}

func TestFlushSweepsTempFiles(t *testing.T) {
	st := open(t)
	stray := filepath.Join(st.dir, ".tmp-999-1")
	if err := os.WriteFile(stray, []byte("torn write"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stray); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("Flush must sweep stray temp files")
	}
	if _, ok := st.Get("k"); !ok {
		t.Fatal("Flush must keep live entries")
	}
}

func TestEncodeDecodeIdentity(t *testing.T) {
	cases := []struct {
		key     string
		payload string
	}{
		{"", ""},
		{"k", ""},
		{"", "p"},
		{strings.Repeat("key", 100), strings.Repeat("payload", 1000)},
	}
	for _, c := range cases {
		key, payload, err := Decode(Encode(c.key, []byte(c.payload)))
		if err != nil {
			t.Fatalf("Decode(Encode(%q, %q)): %v", c.key, c.payload, err)
		}
		if key != c.key || string(payload) != c.payload {
			t.Fatalf("round trip (%q, %q) → (%q, %q)", c.key, c.payload, key, payload)
		}
	}
}
