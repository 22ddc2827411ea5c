package rl

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mcmpart/internal/mcm"
)

// TestRegistryEmptyDirectorySelection pins the empty-registry behavior: a
// fresh directory scans clean, selection finds nothing (without error), and
// the directory is created if missing.
func TestRegistryEmptyDirectorySelection(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "does", "not", "exist", "yet")
	r, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.entries; len(got) != 0 {
		t.Fatalf("empty registry lists %d entries", len(got))
	}
	dev4 := mcm.Dev4()
	if got := r.ForPackage(dev4); len(got) != 0 {
		t.Fatalf("empty registry matches %d policies", len(got))
	}
	policy, entry, found, err := r.LoadLatest(dev4)
	if err != nil {
		t.Fatalf("LoadLatest on an empty registry errored: %v", err)
	}
	if found || policy != nil || entry.Path != "" {
		t.Fatalf("LoadLatest on an empty registry = (%v, %+v, %t)", policy, entry, found)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("OpenRegistry did not create the directory: %v", err)
	}
}

// TestRegistryCorruptArtifacts covers the two corruption shapes: a file
// whose JSON is garbage is skipped at scan time (harmless foreign file),
// while a file with a readable header but an unrestorable snapshot is
// listed — and LoadLatest surfaces a descriptive error instead of
// installing a broken policy.
func TestRegistryCorruptArtifacts(t *testing.T) {
	dir := t.TempDir()
	r, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	dev4 := mcm.Dev4()

	// Garbage bytes: skipped, selection stays empty.
	if err := os.WriteFile(filepath.Join(dir, "garbage.policy.json"), []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := r.Rescan(); err != nil {
		t.Fatal(err)
	}
	if len(r.entries) != 0 {
		t.Fatalf("garbage artifact was scanned as %d entries", len(r.entries))
	}
	if _, _, found, err := r.LoadLatest(dev4); found || err != nil {
		t.Fatalf("LoadLatest over garbage = (found=%t, err=%v)", found, err)
	}

	// Readable header, corrupt payload: save a real artifact, then strip
	// its snapshot weights.
	policy := NewPolicy(QuickConfig(dev4.Chips), rand.New(rand.NewSource(1)))
	entry, err := r.Save(policy, dev4)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(entry.Path)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	raw["snapshot"] = json.RawMessage(`{}`)
	corrupted, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(entry.Path, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := r.Rescan(); err != nil {
		t.Fatal(err)
	}
	if len(r.ForPackage(dev4)) != 1 {
		t.Fatalf("corrupt-payload artifact should still be listed (header is readable); got %d entries", len(r.ForPackage(dev4)))
	}
	_, e, found, err := r.LoadLatest(dev4)
	if !found {
		t.Fatal("LoadLatest did not find the corrupt artifact")
	}
	if err == nil {
		t.Fatal("LoadLatest restored a policy from a corrupt snapshot")
	}
	if e.Path != entry.Path {
		t.Fatalf("error names %s, want %s", e.Path, entry.Path)
	}
}

// TestRegistrySaveIntoNonDirectory pins that Save returns when it cannot
// check a name: with the registry directory replaced by a regular file every
// Stat fails with something other than not-exist, and a name loop that only
// stopped on not-exist would spin forever holding the registry's write lock.
func TestRegistrySaveIntoNonDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "registry")
	r, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	dev4 := mcm.Dev4()
	done := make(chan error, 1)
	go func() {
		_, err := r.Save(NewPolicy(QuickConfig(dev4.Chips), rand.New(rand.NewSource(1))), dev4)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Save into a regular file succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Save did not return within 5s")
	}
	if got := r.ForPackage(dev4); len(got) != 0 {
		t.Fatalf("failed Save left %d entries", len(got))
	}
}

// TestRegistryDuplicateVersionNumbers pins selection when two artifacts
// carry the same sequence number for the same package (e.g. two machines
// saved version 001 into a shared directory): both are listed, selection
// breaks the tie by path deterministically, and the next Save allocates the
// following sequence number rather than clobbering either file.
func TestRegistryDuplicateVersionNumbers(t *testing.T) {
	dir := t.TempDir()
	r, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	dev4 := mcm.Dev4()
	pA := NewPolicy(QuickConfig(dev4.Chips), rand.New(rand.NewSource(1)))
	eA, err := r.Save(pA, dev4)
	if err != nil {
		t.Fatal(err)
	}
	if eA.Seq != 1 {
		t.Fatalf("first save got seq %d", eA.Seq)
	}
	// A second writer's version 001 for the same package: same fp12 and
	// sequence, different name prefix, different weights.
	pB := NewPolicy(QuickConfig(dev4.Chips), rand.New(rand.NewSource(2)))
	fp12 := PackageFingerprint(dev4)[:12]
	dupPath := filepath.Join(dir, "othermachine-"+fp12+"-001.policy.json")
	if err := SaveArtifact(dupPath, pB, dev4); err != nil {
		t.Fatal(err)
	}
	if err := r.Rescan(); err != nil {
		t.Fatal(err)
	}
	matches := r.ForPackage(dev4)
	if len(matches) != 2 || matches[0].Seq != 1 || matches[1].Seq != 1 {
		t.Fatalf("duplicate versions listed as %+v", matches)
	}
	if !strings.HasPrefix(filepath.Base(matches[0].Path), "dev4-") ||
		!strings.HasPrefix(filepath.Base(matches[1].Path), "othermachine-") {
		t.Fatalf("tie not broken by path: %s, %s", matches[0].Path, matches[1].Path)
	}
	latest, e, found, err := r.LoadLatest(dev4)
	if err != nil || !found {
		t.Fatalf("LoadLatest = (found=%t, err=%v)", found, err)
	}
	if e.Path != dupPath {
		t.Fatalf("LoadLatest picked %s, want the path-later duplicate %s", e.Path, dupPath)
	}
	if PolicyFingerprint(latest) != PolicyFingerprint(pB) {
		t.Fatal("LoadLatest materialized the wrong duplicate")
	}
	// The next save must step past the duplicated sequence, leaving both
	// 001 files intact.
	eC, err := r.Save(NewPolicy(QuickConfig(dev4.Chips), rand.New(rand.NewSource(3))), dev4)
	if err != nil {
		t.Fatal(err)
	}
	if eC.Seq != 2 {
		t.Fatalf("save after duplicates got seq %d, want 2", eC.Seq)
	}
	for _, p := range []string{eA.Path, dupPath} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("duplicate-era artifact %s was clobbered: %v", p, err)
		}
	}
}
