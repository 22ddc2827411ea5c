package rl

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"mcmpart/internal/mcm"
)

func TestRegistrySaveScanLoadLatest(t *testing.T) {
	dir := t.TempDir()
	r, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	dev4, dev8 := mcm.Dev4(), mcm.Dev8()
	p4a := NewPolicy(QuickConfig(dev4.Chips), rand.New(rand.NewSource(1)))
	p4b := NewPolicy(QuickConfig(dev4.Chips), rand.New(rand.NewSource(2)))
	p8 := NewPolicy(QuickConfig(dev8.Chips), rand.New(rand.NewSource(3)))

	e1, err := r.Save(p4a, dev4)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := r.Save(p4b, dev4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Save(p8, dev8); err != nil {
		t.Fatal(err)
	}
	if e1.Seq != 1 || e2.Seq != 2 {
		t.Fatalf("sequence numbers = %d, %d; want 1, 2", e1.Seq, e2.Seq)
	}
	if got := len(r.entries); got != 3 {
		t.Fatalf("registry holds %d entries, want 3", got)
	}
	if got := len(r.ForPackage(dev4)); got != 2 {
		t.Fatalf("dev4 has %d policies, want 2", got)
	}

	// A fresh Registry over the same directory sees the same state.
	r2, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	latest, e, ok, err := r2.LoadLatest(dev4)
	if err != nil || !ok {
		t.Fatalf("LoadLatest(dev4) = ok=%v err=%v", ok, err)
	}
	if e.Seq != 2 {
		t.Fatalf("latest dev4 policy has seq %d, want 2", e.Seq)
	}
	if PolicyFingerprint(latest) != PolicyFingerprint(p4b) {
		t.Fatal("LoadLatest returned a different policy than the last Save")
	}
}

func TestRegistryIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "notes.json"), []byte(`{"hello":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "junk.policy.json"), []byte(`not json`), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(r.entries); got != 0 {
		t.Fatalf("foreign files produced %d entries", got)
	}
	_, _, ok, err := r.LoadLatest(mcm.Dev4())
	if err != nil || ok {
		t.Fatalf("empty registry LoadLatest = ok=%v err=%v, want miss", ok, err)
	}
}

func TestRegistryPicksUpPlainSaveArtifact(t *testing.T) {
	// Artifacts written by SaveArtifact outside Registry.Save (e.g. by
	// Planner.SavePolicy) are still served, at sequence 0.
	dir := t.TempDir()
	dev4 := mcm.Dev4()
	p := NewPolicy(QuickConfig(dev4.Chips), rand.New(rand.NewSource(9)))
	if err := SaveArtifact(filepath.Join(dir, "dev4.policy.json"), p, dev4); err != nil {
		t.Fatal(err)
	}
	r, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, e, ok, err := r.LoadLatest(dev4)
	if err != nil || !ok {
		t.Fatalf("LoadLatest = ok=%v err=%v", ok, err)
	}
	if e.Seq != 0 {
		t.Fatalf("plain artifact has seq %d, want 0", e.Seq)
	}
	if PolicyFingerprint(got) != PolicyFingerprint(p) {
		t.Fatal("loaded policy differs from the saved one")
	}
}

func TestRegistrySaveDoesNotClobberExternalWriters(t *testing.T) {
	// An artifact dropped into the directory after the last scan (e.g. by
	// another process) must not be overwritten by Save.
	dir := t.TempDir()
	dev4 := mcm.Dev4()
	r, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	external := NewPolicy(QuickConfig(dev4.Chips), rand.New(rand.NewSource(4)))
	extEntry, err := func() (RegistryEntry, error) {
		other, err := OpenRegistry(dir) // a second process's view
		if err != nil {
			return RegistryEntry{}, err
		}
		return other.Save(external, dev4)
	}()
	if err != nil {
		t.Fatal(err)
	}
	mine := NewPolicy(QuickConfig(dev4.Chips), rand.New(rand.NewSource(5)))
	e, err := r.Save(mine, dev4) // r has not rescanned since the external write
	if err != nil {
		t.Fatal(err)
	}
	if e.Path == extEntry.Path {
		t.Fatalf("Save reused the external writer's path %s", e.Path)
	}
	got, err := LoadArtifact(extEntry.Path, dev4)
	if err != nil {
		t.Fatal(err)
	}
	if PolicyFingerprint(got) != PolicyFingerprint(external) {
		t.Fatal("external artifact was overwritten")
	}
}

func TestRegistryHandNamedArtifactCannotShadowVersions(t *testing.T) {
	// A date-stamped hand-named artifact must parse as sequence 0, not as
	// sequence 20260701, or it would shadow every Registry.Save version.
	dir := t.TempDir()
	dev4 := mcm.Dev4()
	dated := NewPolicy(QuickConfig(dev4.Chips), rand.New(rand.NewSource(6)))
	if err := SaveArtifact(filepath.Join(dir, "dev4-20260701.policy.json"), dated, dev4); err != nil {
		t.Fatal(err)
	}
	r, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range r.ForPackage(dev4) {
		if e.Seq != 0 {
			t.Fatalf("hand-named artifact %s parsed as seq %d, want 0", e.Path, e.Seq)
		}
	}
	saved := NewPolicy(QuickConfig(dev4.Chips), rand.New(rand.NewSource(7)))
	if _, err := r.Save(saved, dev4); err != nil {
		t.Fatal(err)
	}
	latest, e, ok, err := r.LoadLatest(dev4)
	if err != nil || !ok {
		t.Fatalf("LoadLatest = ok=%v err=%v", ok, err)
	}
	if e.Seq != 1 {
		t.Fatalf("latest is seq %d (%s), want the Save at seq 1", e.Seq, e.Path)
	}
	if PolicyFingerprint(latest) != PolicyFingerprint(saved) {
		t.Fatal("dated artifact shadowed the registry version")
	}
}

func TestPolicyFingerprintDistinguishesWeights(t *testing.T) {
	cfg := QuickConfig(4)
	a := NewPolicy(cfg, rand.New(rand.NewSource(1)))
	b := NewPolicy(cfg, rand.New(rand.NewSource(2)))
	if PolicyFingerprint(a) == PolicyFingerprint(b) {
		t.Fatal("different weights must fingerprint differently")
	}
	if PolicyFingerprint(a) != PolicyFingerprint(a.Clone()) {
		t.Fatal("a clone must fingerprint identically")
	}
}

// TestReadEntryAllocs: a registry scan reads three header fields, so it must
// not build the weights. While no policy is installed the service rescans on
// every zero-shot or fine-tune request. Decoding the whole quick-scale
// artifact took 161 allocations per file; the header alone takes 14.
func TestReadEntryAllocs(t *testing.T) {
	dev4 := mcm.Dev4()
	path := filepath.Join(t.TempDir(), "p.policy.json")
	if err := SaveArtifact(path, NewPolicy(QuickConfig(dev4.Chips), rand.New(rand.NewSource(1))), dev4); err != nil {
		t.Fatal(err)
	}
	if _, err := readEntry(path); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := readEntry(path); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("readEntry: %.0f allocations", allocs)
	const ceiling = 30
	if allocs > ceiling {
		t.Fatalf("readEntry allocated %.0f objects, want <= %d", allocs, ceiling)
	}
}
