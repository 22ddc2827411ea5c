package main

// Hand-rolled analysistest-style golden harness: each testdata/<analyzer>
// directory is one fixture package seeded with contract violations. A
// `// want "substring"` comment binds an expected diagnostic to its line —
// trailing on the offending line, or standalone on the line above (for
// diagnostics that point at a directive comment). The test fails on any
// unmatched expectation (the seeded violation was not caught) and on any
// unexpected diagnostic (a false positive crept in).

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var wantRE = regexp.MustCompile(`// want "([^"]+)"`)

// parseWants extracts line → expected-substring bindings from one fixture
// file. A want on a standalone comment line applies to the next line.
func parseWants(t *testing.T, path string) map[int][]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wants := map[int][]string{}
	lines := strings.Split(string(data), "\n")
	for i, line := range lines {
		ms := wantRE.FindAllStringSubmatch(line, -1)
		if len(ms) == 0 {
			continue
		}
		lineNo := i + 1
		if strings.HasPrefix(strings.TrimSpace(line), "//") {
			// Standalone comment: the expectation is about the next
			// content line (gofmt may pad doc comments with bare // lines).
			lineNo++
			for lineNo-1 < len(lines) && strings.TrimSpace(lines[lineNo-1]) == "//" {
				lineNo++
			}
		}
		for _, m := range ms {
			wants[lineNo] = append(wants[lineNo], m[1])
		}
	}
	return wants
}

// runGolden lints one fixture directory with a single analyzer (framework
// diagnostics always included) and diffs findings against the wants.
func runGolden(t *testing.T, analyzer *Analyzer, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	wants := map[string]map[int][]string{}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		p := filepath.Join(dir, e.Name())
		files = append(files, p)
		wants[p] = parseWants(t, p)
	}
	if len(files) == 0 {
		t.Fatalf("no fixture files in %s", dir)
	}
	u, err := loadUnit(dir, dir, files, nil)
	if err != nil {
		t.Fatal(err)
	}
	findings := lintUnit(u, []*Analyzer{analyzer})

	matched := map[string]map[int][]bool{}
	for file, byLine := range wants {
		matched[file] = map[int][]bool{}
		for line, subs := range byLine {
			matched[file][line] = make([]bool, len(subs))
		}
	}
	for _, f := range findings {
		ok := false
		for i, sub := range wants[f.pos.Filename][f.pos.Line] {
			if strings.Contains(f.msg, sub) {
				matched[f.pos.Filename][f.pos.Line][i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic at %s:%d: %s", f.pos.Filename, f.pos.Line, f.msg)
		}
	}
	for file, byLine := range wants {
		for line, subs := range byLine {
			for i, sub := range subs {
				if !matched[file][line][i] {
					t.Errorf("missing diagnostic at %s:%d: want a finding containing %q", file, line, sub)
				}
			}
		}
	}
	if t.Failed() {
		var got []string
		for _, f := range findings {
			got = append(got, fmt.Sprintf("%s:%d: %s", f.pos.Filename, f.pos.Line, f.msg))
		}
		t.Logf("all findings:\n%s", strings.Join(got, "\n"))
	}
}

func TestGoldenDet(t *testing.T) { runGolden(t, detAnalyzer, filepath.Join("testdata", "det")) }
func TestGoldenCtxloop(t *testing.T) {
	runGolden(t, ctxloopAnalyzer, filepath.Join("testdata", "ctxloop"))
}
func TestGoldenHotalloc(t *testing.T) {
	runGolden(t, hotallocAnalyzer, filepath.Join("testdata", "hotalloc"))
}
func TestGoldenGoleak(t *testing.T) {
	runGolden(t, goleakAnalyzer, filepath.Join("testdata", "goleak"))
}
func TestGoldenErrcontract(t *testing.T) {
	runGolden(t, errcontractAnalyzer, filepath.Join("testdata", "errcontract"))
}

// TestGoldenFramework exercises the directive machinery itself: malformed
// ignores, unknown analyzers/directives, and the working escape path. det
// runs so the fixture can prove that a malformed ignore does NOT suppress
// and a well-formed one does.
func TestGoldenFramework(t *testing.T) {
	runGolden(t, detAnalyzer, filepath.Join("testdata", "framework"))
}
