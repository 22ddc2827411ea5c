package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestVetUnitProtocol drives the unitchecker path with a hand-written cfg:
// a VetxOnly (dependency) unit must write its facts file and stay silent; a
// target unit over the fixture must report findings and still write facts;
// a unit whose only finding carries a reasoned ignore must exit clean.
func TestVetUnitProtocol(t *testing.T) {
	tmp := t.TempDir()
	vetx := filepath.Join(tmp, "unit.vetx")
	cfgPath := filepath.Join(tmp, "dep.cfg")
	if err := os.WriteFile(cfgPath, []byte(`{"ImportPath":"p","VetxOnly":true,"VetxOutput":"`+vetx+`"}`), 0o666); err != nil {
		t.Fatal(err)
	}
	if got := runVetUnit(cfgPath); got != 0 {
		t.Fatalf("VetxOnly unit: exit %d, want 0", got)
	}
	if _, err := os.Stat(vetx); err != nil {
		t.Fatalf("VetxOnly unit did not write facts file: %v", err)
	}

	fixture, err := filepath.Abs(filepath.Join("testdata", "det", "violation.go"))
	if err != nil {
		t.Fatal(err)
	}
	vetx2 := filepath.Join(tmp, "target.vetx")
	cfg2 := filepath.Join(tmp, "target.cfg")
	if err := os.WriteFile(cfg2, []byte(`{"ImportPath":"fixture","GoFiles":["`+fixture+`"],"VetxOutput":"`+vetx2+`"}`), 0o666); err != nil {
		t.Fatal(err)
	}
	if got := runVetUnit(cfg2); got != 2 {
		t.Fatalf("target unit: exit %d, want 2 (seeded violations)", got)
	}
	if _, err := os.Stat(vetx2); err != nil {
		t.Fatalf("target unit did not write facts file: %v", err)
	}

	// The exit status ignores suppressed findings.
	quiet := filepath.Join(tmp, "quiet.go")
	src := "//mcmlint:deterministic\npackage quiet\n\nimport \"time\"\n\n" +
		"//mcmlint:ignore det test: the escape path\nfunc stamp() time.Time { return time.Now() }\n"
	if err := os.WriteFile(quiet, []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}
	cfg3 := filepath.Join(tmp, "quiet.cfg")
	if err := os.WriteFile(cfg3, []byte(`{"ImportPath":"quiet","GoFiles":["`+quiet+`"]}`), 0o666); err != nil {
		t.Fatal(err)
	}
	if got := runVetUnit(cfg3); got != 0 {
		t.Fatalf("all-suppressed unit: exit %d, want 0", got)
	}
}
