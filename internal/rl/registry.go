package rl

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"mcmpart/internal/mcm"
)

// PolicyFingerprint returns a stable content hash of a policy: its network
// configuration and every weight, independent of where (or whether) the
// policy is stored on disk. Two policies fingerprint identically iff
// deploying them zero-shot produces identical decisions, which is why the
// fingerprint participates in the plan-cache key for the deployed-policy
// methods.
func PolicyFingerprint(p *Policy) string {
	payload := struct {
		Config   Config      `json:"config"`
		Snapshot interface{} `json:"snapshot"`
	}{Config: p.Cfg, Snapshot: p.Snapshot()}
	data, err := json.Marshal(payload) // map keys marshal sorted: deterministic
	if err != nil {
		panic("rl: fingerprinting policy: " + err.Error())
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// RegistryEntry describes one policy artifact found in a registry
// directory. It is header metadata only; LoadLatest materializes the policy.
type RegistryEntry struct {
	// Path is the artifact file, inside the registry directory.
	Path string `json:"path"`
	// PackageName and PackageFingerprint identify the package the policy
	// was pre-trained for (see Artifact).
	PackageName        string `json:"package_name"`
	PackageFingerprint string `json:"package_fingerprint"`
	// Version is the artifact schema version.
	Version int `json:"version"`
	// Seq is the registry sequence number parsed from the filename
	// (…-NNN.policy.json); 0 for artifacts saved outside Registry.Save.
	// Among the policies for one package fingerprint, higher Seq is newer.
	Seq int `json:"seq"`
}

// Registry is a directory of versioned policy artifacts, keyed by the
// package fingerprint each policy was pre-trained for. It is the shared
// store a planning service selects policies from at plan time: any number
// of pre-training runs (possibly on other machines) drop artifacts into the
// directory, and LoadLatest picks the newest one matching the serving
// package. All methods are safe for concurrent use.
type Registry struct {
	dir string

	mu      sync.RWMutex
	entries []RegistryEntry
}

// OpenRegistry opens (creating if needed) a registry directory and scans it.
func OpenRegistry(dir string) (*Registry, error) {
	if dir == "" {
		return nil, fmt.Errorf("rl: registry directory must not be empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("rl: creating registry directory: %w", err)
	}
	r := &Registry{dir: dir}
	if err := r.Rescan(); err != nil {
		return nil, err
	}
	return r, nil
}

// Rescan re-reads the directory. Files that are not readable policy
// artifacts are skipped, so foreign files in the directory are harmless.
func (r *Registry) Rescan() error {
	entries, err := scanDir(r.dir)
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.entries = entries
	r.mu.Unlock()
	return nil
}

// scanDir reads the artifact headers of every *.json in dir.
func scanDir(dir string) ([]RegistryEntry, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, fmt.Errorf("rl: scanning registry: %w", err)
	}
	sort.Strings(names)
	entries := make([]RegistryEntry, 0, len(names))
	for _, path := range names {
		e, err := readEntry(path)
		if err != nil {
			continue
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// artifactHeader is the part of an Artifact a scan reads. Decoding into it
// still rejects a file that is not JSON, but skips the weights instead of
// building them.
type artifactHeader struct {
	Version            int    `json:"version"`
	PackageFingerprint string `json:"package_fingerprint"`
	PackageName        string `json:"package_name"`
}

// readEntry parses the artifact header of one file.
func readEntry(path string) (RegistryEntry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return RegistryEntry{}, err
	}
	var a artifactHeader
	if err := json.Unmarshal(data, &a); err != nil {
		return RegistryEntry{}, err
	}
	if a.Version != ArtifactVersion || a.PackageFingerprint == "" {
		return RegistryEntry{}, fmt.Errorf("rl: %s is not a readable policy artifact", path)
	}
	return RegistryEntry{
		Path:               path,
		PackageName:        a.PackageName,
		PackageFingerprint: a.PackageFingerprint,
		Version:            a.Version,
		Seq:                parseSeq(path, a.PackageFingerprint),
	}, nil
}

// parseSeq extracts the NNN of a registry-named artifact,
// "<name>-<fp12>-NNN.policy.json", where fp12 must be the first 12
// characters of the artifact's own package fingerprint. Anything else —
// including hand-named artifacts that happen to end in digits, like
// "dev8-20260701.policy.json" — is sequence 0, so it can never shadow
// versions allocated by Registry.Save.
func parseSeq(path, pkgFP string) int {
	base := filepath.Base(path)
	base, ok := strings.CutSuffix(base, ".policy.json")
	if !ok {
		return 0
	}
	i := strings.LastIndex(base, "-")
	if i < 0 {
		return 0
	}
	n, err := strconv.Atoi(base[i+1:])
	if err != nil || n <= 0 {
		return 0
	}
	rest := base[:i]
	if len(pkgFP) < 12 || !strings.HasSuffix(rest, "-"+pkgFP[:12]) {
		return 0
	}
	return n
}

// ForPackage returns the entries pre-trained for exactly pkg, oldest first
// (by sequence number, then path).
func (r *Registry) ForPackage(pkg *mcm.Package) []RegistryEntry {
	want := PackageFingerprint(pkg)
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []RegistryEntry
	for _, e := range r.entries {
		if e.PackageFingerprint == want {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Seq != out[b].Seq {
			return out[a].Seq < out[b].Seq
		}
		return out[a].Path < out[b].Path
	})
	return out
}

// LoadLatest loads the newest policy pre-trained for pkg. The boolean is
// false when the registry holds no policy for the package; an error means a
// matching artifact exists but could not be loaded.
func (r *Registry) LoadLatest(pkg *mcm.Package) (*Policy, RegistryEntry, bool, error) {
	matches := r.ForPackage(pkg)
	if len(matches) == 0 {
		return nil, RegistryEntry{}, false, nil
	}
	e := matches[len(matches)-1]
	p, err := LoadArtifact(e.Path, pkg)
	if err != nil {
		return nil, e, true, err
	}
	return p, e, true, nil
}

// Save writes the policy as the next version for its package: a new
// artifact named "<package>-<fp12>-NNN.policy.json" with NNN one above the
// highest existing sequence number for that package fingerprint. The
// directory is rescanned under the lock first, so artifacts dropped by
// other processes since the last scan are never overwritten (names that
// somehow exist anyway are skipped, not clobbered). A name that cannot be
// checked at all (say, the directory was replaced by a regular file) is an
// error, not a name to skip.
func (r *Registry) Save(policy *Policy, pkg *mcm.Package) (RegistryEntry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if entries, err := scanDir(r.dir); err == nil {
		r.entries = entries
	}
	want := PackageFingerprint(pkg)
	seq := 0
	for _, e := range r.entries {
		if e.PackageFingerprint == want && e.Seq > seq {
			seq = e.Seq
		}
	}
	var path string
	for {
		seq++
		name := fmt.Sprintf("%s-%.12s-%03d.policy.json", sanitizeName(pkg.Name), want, seq)
		path = filepath.Join(r.dir, name)
		_, err := os.Stat(path)
		if os.IsNotExist(err) {
			break
		}
		if err != nil {
			return RegistryEntry{}, fmt.Errorf("rl: choosing a registry artifact name: %w", err)
		}
	}
	if err := SaveArtifact(path, policy, pkg); err != nil {
		return RegistryEntry{}, err
	}
	e := RegistryEntry{
		Path:               path,
		PackageName:        pkg.Name,
		PackageFingerprint: want,
		Version:            ArtifactVersion,
		Seq:                seq,
	}
	r.entries = append(r.entries, e)
	sort.Slice(r.entries, func(a, b int) bool { return r.entries[a].Path < r.entries[b].Path })
	return e, nil
}

// sanitizeName makes a package name safe as a filename component.
func sanitizeName(name string) string {
	if name == "" {
		return "package"
	}
	var b strings.Builder
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			b.WriteRune(c)
		default:
			b.WriteRune('_')
		}
	}
	return b.String()
}
