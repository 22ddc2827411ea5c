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
	"io"
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

// maxEntryBytes caps how large an entry a reader will accept — neither
// corruption of the length fields nor an oversized file may turn into a
// giant allocation.
const maxEntryBytes = 1 << 28 // 256 MiB

// Store is a directory of plan entries. All methods are safe for
// concurrent use.
type Store struct {
	dir  string
	logf func(format string, args ...any)
	now  func() time.Time // time.Now: the latency histograms' clock

	// The store's instruments, set by Instrument (which must precede first
	// use: Get and Put read them without a lock).
	writes, writeErrors, quarantined *telemetry.Counter
	readSeconds                      *telemetry.Histogram // latency of Get, hit or miss
	writeSeconds                     *telemetry.Histogram // latency of Put, success or failure

	mu  sync.Mutex
	seq uint64 // temp-file uniquifier; guarded by mu
}

// Open creates (if needed) and opens a store rooted at dir. logf receives
// one line per quarantined entry and per write failure; nil discards. The
// store counts into a registry of its own until Instrument moves it.
func Open(dir string, logf func(format string, args ...any)) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("plancache: %w", err)
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s := &Store{dir: dir, logf: logf, now: time.Now}
	s.Instrument(telemetry.NewRegistry())
	return s, nil
}

// Instrument registers the store's instruments — the mcmpart_disk_*
// families of the /metrics contract — on reg and records into them from
// then on. Call it before the store's first Get or Put.
func (s *Store) Instrument(reg *telemetry.Registry) {
	s.writes = reg.Counter("mcmpart_disk_writes_total", "Plans durably written to the disk tier.")
	s.writeErrors = reg.Counter("mcmpart_disk_write_errors_total", "Disk-tier writes that failed (logged; no partial entry remains).")
	s.quarantined = reg.Counter("mcmpart_disk_quarantined_total", "Disk-tier entries set aside after failing verification.")
	s.readSeconds = reg.Histogram("mcmpart_disk_read_seconds", "Disk-tier Get latency, hit or miss.", telemetry.DefBuckets)
	s.writeSeconds = reg.Histogram("mcmpart_disk_write_seconds", "Disk-tier Put latency, success or failure.", telemetry.DefBuckets)
}

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
	defer func() { s.readSeconds.Observe(s.now().Sub(start).Seconds()) }()
	path := s.path(key)
	if err := faultinject.Check(faultinject.PointDiskRead); err != nil {
		s.logf("plancache: read %s: %v", filepath.Base(path), err)
		return nil, false
	}
	data, err := readEntry(path)
	if errors.Is(err, ErrCorrupt) {
		s.quarantine(path, err)
		return nil, false
	}
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			s.logf("plancache: read %s: %v", filepath.Base(path), err)
		}
		return nil, false
	}
	storedKey, payload, err := Decode(data)
	if err != nil {
		s.quarantine(path, err)
		return nil, false
	}
	if storedKey != key {
		s.quarantine(path, fmt.Errorf("%w: entry holds key %q, looked up as %q", ErrCorrupt, storedKey, key))
		return nil, false
	}
	return payload, true
}

// readEntry reads the entry file at path. A file larger than any entry
// Decode accepts is refused as corrupt before its bytes are allocated.
func readEntry(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if fi.Size() > headerLen+maxEntryBytes {
		return nil, fmt.Errorf("%w: %d-byte file exceeds the %d-byte cap", ErrCorrupt, fi.Size(), headerLen+maxEntryBytes)
	}
	data := make([]byte, fi.Size())
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, err
	}
	return data, nil
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
	s.quarantined.Inc()
}

// Put durably stores payload under key: temp file in the same directory,
// fsync, atomic rename. A failure is logged and counted but leaves no
// partial entry behind.
func (s *Store) Put(key string, payload []byte) error {
	start := s.now()
	err := s.put(key, payload)
	s.writeSeconds.Observe(s.now().Sub(start).Seconds())
	if err != nil {
		s.logf("plancache: write %s: %v", filepath.Base(s.path(key)), err)
		s.writeErrors.Inc()
		return err
	}
	s.writes.Inc()
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
