// Package plancache is the crash-safe persistent tier under the Service's
// in-memory plan cache. It stores opaque payload bytes keyed by the
// canonical plan-cache key (DESIGN.md §8 makes plans a pure function of
// that key, so a disk entry written by one process is correct to serve
// from any later one — the property that turns plans into reusable
// artifacts rather than per-run computations).
//
// Durability contract, per entry:
//
//   - writes go to a temp file in the same directory, are fsynced, and
//     reach their final name via one atomic rename — a crash mid-write
//     leaves either the old entry or a stray temp file, never a torn one;
//   - every entry carries a versioned header and a SHA-256 checksum over
//     key and payload; corrupt, truncated, stale-version, or
//     key-mismatched entries are quarantined (renamed aside, logged,
//     counted) and reported as a miss — never served;
//   - lookups are lazy: nothing is scanned at startup, so warm starts are
//     O(1) and pay one file read per first-touch key.
//
//mcmlint:deterministic
//mcmlint:errcontract
package plancache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mcmpart/internal/faultinject"
	"mcmpart/internal/telemetry"
)

// Format constants. Bumping Version invalidates (quarantines) every
// existing entry on first touch — the escape hatch for payload schema
// changes.
const (
	// Version is the on-disk entry format version.
	Version = 1
	// entrySuffix names live entries; quarantineSuffix names entries set
	// aside after failing verification.
	entrySuffix      = ".plan"
	quarantineSuffix = ".quarantined"
)

// magic opens every entry file.
var magic = [8]byte{'M', 'C', 'M', 'P', 'L', 'A', 'N', 'C'}

// header layout: magic[8] | version u32 | keyLen u32 | payloadLen u32 |
// sha256(key || payload)[32], all little-endian, followed by key bytes and
// payload bytes.
const headerLen = 8 + 4 + 4 + 4 + 32

// maxEntryBytes caps how large an entry a reader will accept — corruption
// of the length fields must not turn into a giant allocation.
const maxEntryBytes = 1 << 28 // 256 MiB

// Stats is a point-in-time snapshot of store activity.
type Stats struct {
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Writes      uint64 `json:"writes"`
	WriteErrors uint64 `json:"write_errors"`
	Quarantined uint64 `json:"quarantined"`
}

// Metrics are the instruments a Store records into. Open wires standalone
// instruments so a Store always counts; SetMetrics swaps in
// registry-backed ones so the same numbers appear on /metrics. Stats()
// reads whichever set is installed — there is exactly one source of
// truth.
type Metrics struct {
	Hits         *telemetry.Counter
	Misses       *telemetry.Counter
	Writes       *telemetry.Counter
	WriteErrors  *telemetry.Counter
	Quarantined  *telemetry.Counter
	ReadSeconds  *telemetry.Histogram // latency of Get, hit or miss
	WriteSeconds *telemetry.Histogram // latency of Put, success or failure
}

// Store is a directory of plan entries. All methods are safe for
// concurrent use.
type Store struct {
	dir  string
	logf func(format string, args ...any)
	m    Metrics          // immutable after SetMetrics (which must precede first use)
	now  func() time.Time // time.Now: the latency histograms' clock

	mu  sync.Mutex
	seq uint64 // temp-file uniquifier; guarded by mu
}

// Open creates (if needed) and opens a store rooted at dir. logf receives
// one line per quarantined entry and per write failure; nil discards.
func Open(dir string, logf func(format string, args ...any)) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("plancache: %w", err)
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Store{
		dir:  dir,
		logf: logf,
		m: Metrics{
			Hits:         new(telemetry.Counter),
			Misses:       new(telemetry.Counter),
			Writes:       new(telemetry.Counter),
			WriteErrors:  new(telemetry.Counter),
			Quarantined:  new(telemetry.Counter),
			ReadSeconds:  telemetry.NewHistogram(telemetry.DefBuckets),
			WriteSeconds: telemetry.NewHistogram(telemetry.DefBuckets),
		},
		now: time.Now,
	}, nil
}

// SetMetrics replaces the store's instruments with registry-backed ones.
// Nil fields keep the standalone instrument Open installed. Call before
// the store's first Get/Put — the fields are read without a lock on the
// hot path.
func (s *Store) SetMetrics(m Metrics) {
	if m.Hits != nil {
		s.m.Hits = m.Hits
	}
	if m.Misses != nil {
		s.m.Misses = m.Misses
	}
	if m.Writes != nil {
		s.m.Writes = m.Writes
	}
	if m.WriteErrors != nil {
		s.m.WriteErrors = m.WriteErrors
	}
	if m.Quarantined != nil {
		s.m.Quarantined = m.Quarantined
	}
	if m.ReadSeconds != nil {
		s.m.ReadSeconds = m.ReadSeconds
	}
	if m.WriteSeconds != nil {
		s.m.WriteSeconds = m.WriteSeconds
	}
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// path maps a key to its entry file: keys are arbitrary strings, so the
// filename is the hex SHA-256 of the key (the key itself is stored inside
// the entry and verified on read, so a hash collision or a renamed file
// cannot serve the wrong plan).
func (s *Store) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, hex.EncodeToString(sum[:])+entrySuffix)
}

// Encode serializes one entry. Exported for the fuzz target, which must be
// able to build valid entries and corrupt them.
func Encode(key string, payload []byte) []byte {
	buf := make([]byte, 0, headerLen+len(key)+len(payload))
	buf = append(buf, magic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, Version)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	sum := sha256.New()
	sum.Write([]byte(key))
	sum.Write(payload)
	buf = append(buf, sum.Sum(nil)...)
	buf = append(buf, key...)
	buf = append(buf, payload...)
	return buf
}

// Decode errors (all reported as ErrCorrupt-wrapped, so readers can treat
// every decode failure uniformly as "quarantine and miss").
var ErrCorrupt = errors.New("plancache: corrupt entry")

// Decode parses and verifies one entry, returning its key and payload.
// Exported for the fuzz target.
func Decode(data []byte) (key string, payload []byte, err error) {
	if len(data) < headerLen {
		return "", nil, fmt.Errorf("%w: %d bytes is shorter than the %d-byte header", ErrCorrupt, len(data), headerLen)
	}
	if !bytes.Equal(data[:8], magic[:]) {
		return "", nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:8])
	}
	version := binary.LittleEndian.Uint32(data[8:12])
	if version != Version {
		return "", nil, fmt.Errorf("%w: version %d, want %d", ErrCorrupt, version, Version)
	}
	keyLen := binary.LittleEndian.Uint32(data[12:16])
	payloadLen := binary.LittleEndian.Uint32(data[16:20])
	if uint64(keyLen)+uint64(payloadLen) > maxEntryBytes {
		return "", nil, fmt.Errorf("%w: declared size %d+%d exceeds the %d-byte cap", ErrCorrupt, keyLen, payloadLen, maxEntryBytes)
	}
	want := headerLen + int(keyLen) + int(payloadLen)
	if len(data) != want {
		return "", nil, fmt.Errorf("%w: %d bytes, header declares %d", ErrCorrupt, len(data), want)
	}
	var declared [32]byte
	copy(declared[:], data[20:52])
	body := data[headerLen:]
	sum := sha256.Sum256(body)
	if sum != declared {
		return "", nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return string(body[:keyLen]), body[keyLen:], nil
}

// Get returns the payload stored for key, or ok=false on any miss —
// including quarantined corruption and injected read faults. Get never
// returns bytes that failed verification.
func (s *Store) Get(key string) (payload []byte, ok bool) {
	start := s.now()
	defer func() { s.m.ReadSeconds.Observe(s.now().Sub(start).Seconds()) }()
	path := s.path(key)
	if err := faultinject.Check(faultinject.PointDiskRead); err != nil {
		s.logf("plancache: read %s: %v", filepath.Base(path), err)
		s.m.Misses.Inc()
		return nil, false
	}
	data, err := os.ReadFile(path)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			s.logf("plancache: read %s: %v", filepath.Base(path), err)
		}
		s.m.Misses.Inc()
		return nil, false
	}
	storedKey, payload, err := Decode(data)
	if err != nil {
		s.quarantine(path, err)
		s.m.Misses.Inc()
		return nil, false
	}
	if storedKey != key {
		s.quarantine(path, fmt.Errorf("%w: entry holds key %q, looked up as %q", ErrCorrupt, storedKey, key))
		s.m.Misses.Inc()
		return nil, false
	}
	s.m.Hits.Inc()
	return payload, true
}

// Quarantine sets the entry for key aside (e.g. when the caller's own
// payload decode fails even though the envelope verified).
func (s *Store) Quarantine(key string, reason error) {
	s.quarantine(s.path(key), reason)
}

func (s *Store) quarantine(path string, reason error) {
	s.logf("plancache: quarantining %s: %v", filepath.Base(path), reason)
	if err := os.Rename(path, path+quarantineSuffix); err != nil && !errors.Is(err, fs.ErrNotExist) {
		// Renaming failed (e.g. read-only dir): remove instead; if even
		// that fails the entry stays and will re-quarantine on next touch.
		_ = os.Remove(path)
	}
	s.m.Quarantined.Inc()
}

// Put durably stores payload under key: temp file in the same directory,
// fsync, atomic rename. A failure is logged and counted but leaves no
// partial entry behind.
func (s *Store) Put(key string, payload []byte) error {
	start := s.now()
	err := s.put(key, payload)
	s.m.WriteSeconds.Observe(s.now().Sub(start).Seconds())
	if err != nil {
		s.logf("plancache: write %s: %v", filepath.Base(s.path(key)), err)
		s.m.WriteErrors.Inc()
		return err
	}
	s.m.Writes.Inc()
	return nil
}

func (s *Store) put(key string, payload []byte) error {
	if err := faultinject.Check(faultinject.PointDiskWrite); err != nil {
		return err
	}
	s.mu.Lock()
	s.seq++
	tmp := filepath.Join(s.dir, fmt.Sprintf(".tmp-%d-%d", os.Getpid(), s.seq))
	s.mu.Unlock()
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	data := Encode(key, payload)
	if _, err := f.Write(data); err != nil {
		f.Close()
		_ = os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		_ = os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, s.path(key)); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	return nil
}

// Flush fsyncs the directory so completed renames survive a power loss,
// and sweeps any stray temp files a crashed writer left behind. Called on
// drain/close; per-entry writes are already fsynced.
func (s *Store) Flush() error {
	entries, err := os.ReadDir(s.dir)
	if err == nil {
		for _, e := range entries {
			if len(e.Name()) > 4 && e.Name()[:4] == ".tmp" {
				_ = os.Remove(filepath.Join(s.dir, e.Name()))
			}
		}
	}
	d, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Stats returns a snapshot of store activity, read from the same
// instruments the /metrics exposition serves.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:        s.m.Hits.Value(),
		Misses:      s.m.Misses.Value(),
		Writes:      s.m.Writes.Value(),
		WriteErrors: s.m.WriteErrors.Value(),
		Quarantined: s.m.Quarantined.Value(),
	}
}
