package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// An Analyzer is one named contract check. Run inspects the type-checked
// files of a single package unit through the Pass and reports findings;
// the framework owns loading, ignore filtering, ordering, and output.
type Analyzer struct {
	// Name is the identifier used in diagnostics tags and ignore
	// directives.
	Name string
	// Run performs the check over one package unit.
	Run func(*Pass)
}

// allAnalyzers is the registry, in reporting order. Adding an analyzer
// means appending here and bumping lintVersion (the vet cache key).
var allAnalyzers = []*Analyzer{
	detAnalyzer,
	ctxloopAnalyzer,
	hotallocAnalyzer,
	goleakAnalyzer,
	errcontractAnalyzer,
}

func analyzerByName(name string) *Analyzer {
	for _, a := range allAnalyzers {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Pass carries one analyzer's view of one type-checked package unit.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the unit's non-test source files, with comments.
	Files []*ast.File
	// Pkg and Info are best-effort type-check results: complete under go
	// vet (export-data importer) and for stdlib-only sources, partial when
	// an import cannot be resolved. Analyzers must treat missing type
	// information as "don't know" and stay silent, never guess.
	Pkg  *types.Package
	Info *types.Info

	unit *unit
	out  *[]finding
}

// Reportf records one diagnostic at pos, tagged with the analyzer's name.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.out = append(*p.out, finding{
		analyzer: p.Analyzer.Name,
		pos:      p.Fset.Position(pos),
		msg:      fmt.Sprintf(format, args...) + " [mcmlint:" + p.Analyzer.Name + "]",
	})
}

// HasDirective reports whether any file of the unit carries the
// package-scope directive //mcmlint:<name> (e.g. "deterministic",
// "hotpath"). Analyzers that only apply to annotated packages gate on it.
func (p *Pass) HasDirective(name string) bool { return p.unit.directives[name] }

// TypeOf returns the static type of e, or nil when unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

type finding struct {
	analyzer string
	pos      token.Position
	msg      string
}

// ignoreKey addresses one source line for ignore-directive matching.
type ignoreKey struct {
	file string
	line int
}

// unit is one loaded package build unit plus its scanned directives.
type unit struct {
	fset  *token.FileSet
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
	// directives are package-scope markers (deterministic, hotpath, …).
	directives map[string]bool
	// ignores maps a source line to the analyzers suppressed on that line
	// and the one below it.
	ignores map[ignoreKey]map[string]bool
	// framework holds diagnostics about the directives themselves
	// (missing reason, unknown analyzer). Not suppressible.
	framework []finding
	// callHits memoizes forbiddenCalls, by reporting analyzer.
	callHits map[string][]callHit
}

func (u *unit) suppressed(f finding) bool {
	return u.ignores[ignoreKey{f.pos.Filename, f.pos.Line}][f.analyzer] ||
		u.ignores[ignoreKey{f.pos.Filename, f.pos.Line - 1}][f.analyzer]
}

// scanDirectives walks every comment of the unit, recording package-scope
// markers and ignore escapes, and reporting malformed directives.
func (u *unit) scanDirectives() {
	for _, file := range u.files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				u.scanComment(c)
			}
		}
	}
}

func (u *unit) scanComment(c *ast.Comment) {
	// Only the directive comment form //mcmlint:<verb> … is parsed; prose
	// that merely mentions mcmlint (like this file's own docs) is not.
	rest, ok := strings.CutPrefix(c.Text, "//mcmlint:")
	if !ok {
		return
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		u.frameworkf(c.Pos(), "empty //mcmlint: directive")
		return
	}
	verb, args := fields[0], fields[1:]
	switch verb {
	case "deterministic", "hotpath", "errcontract":
		// Package-scope markers take no arguments; trailing prose would
		// silently change meaning if a future version started parsing it.
		if len(args) != 0 {
			u.frameworkf(c.Pos(), "//mcmlint:%s takes no arguments (got %q)", verb, strings.Join(args, " "))
			return
		}
		u.directives[verb] = true
	case "ignore":
		if len(args) == 0 {
			u.frameworkf(c.Pos(), "//mcmlint:ignore needs an analyzer name and a reason: //mcmlint:ignore <analyzer> <reason>")
			return
		}
		name := args[0]
		if analyzerByName(name) == nil {
			u.frameworkf(c.Pos(), "//mcmlint:ignore names unknown analyzer %q (have %s)", name, strings.Join(analyzerNames(allAnalyzers), ", "))
			return
		}
		if len(args) < 2 {
			u.frameworkf(c.Pos(), "//mcmlint:ignore %s has no reason: every suppression must say why the contract does not apply", name)
			return
		}
		key := ignoreKey{u.fset.Position(c.Pos()).Filename, u.fset.Position(c.Pos()).Line}
		if u.ignores[key] == nil {
			u.ignores[key] = map[string]bool{}
		}
		u.ignores[key][name] = true
	default:
		u.frameworkf(c.Pos(), "unknown //mcmlint:%s directive (have deterministic, hotpath, errcontract, ignore)", verb)
	}
}

func (u *unit) frameworkf(pos token.Pos, format string, args ...any) {
	u.framework = append(u.framework, finding{
		analyzer: "mcmlint",
		pos:      u.fset.Position(pos),
		msg:      fmt.Sprintf(format, args...) + " [mcmlint]",
	})
}

// exportLookup resolves import paths to export-data files using the maps
// cmd/go passes in the vet config; nil when running outside go vet.
type exportLookup struct {
	importMap   map[string]string
	packageFile map[string]string
}

func (l *exportLookup) open(path string) (io.ReadCloser, error) {
	if mapped, ok := l.importMap[path]; ok {
		path = mapped
	}
	file, ok := l.packageFile[path]
	if !ok {
		return nil, fmt.Errorf("mcmlint: no export data for %q", path)
	}
	return os.Open(file)
}

// loadUnit parses and type-checks one package build unit. Test files are
// skipped (they may exercise nondeterminism on purpose).
// Type-checking prefers the gc export data cmd/go provides (exp != nil):
// one fast read per import instead of compiling dependencies from source.
// If that fails — or outside go vet — it falls back to the source importer,
// and any residual errors only cost type-dependent rules their findings.
func loadUnit(pkgPath, dir string, paths []string, exp *exportLookup) (*unit, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		if !filepath.IsAbs(p) && dir != "" {
			if _, err := os.Stat(p); err != nil {
				p = filepath.Join(dir, filepath.Base(p))
			}
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}

	var importers []types.Importer
	if exp != nil {
		importers = append(importers, importer.ForCompiler(fset, "gc", exp.open))
	}
	importers = append(importers, importer.ForCompiler(fset, "source", nil))

	var pkg *types.Package
	var info *types.Info
	for _, imp := range importers {
		info = &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		errs := 0
		conf := types.Config{Importer: imp, Error: func(error) { errs++ }}
		pkg, _ = conf.Check(pkgPath, fset, files, info)
		if errs == 0 {
			break // clean type-check; no need to try the slower path
		}
	}

	u := &unit{
		fset:       fset,
		files:      files,
		pkg:        pkg,
		info:       info,
		directives: map[string]bool{},
		ignores:    map[ignoreKey]map[string]bool{},
	}
	u.scanDirectives()
	return u, nil
}

// lintUnit runs the given analyzers over one loaded unit and returns the
// findings no ignore directive suppresses, sorted by position.
func lintUnit(u *unit, analyzers []*Analyzer) []finding {
	if u == nil {
		return nil
	}
	out := append([]finding(nil), u.framework...)
	for _, a := range analyzers {
		var raw []finding
		a.Run(&Pass{
			Analyzer: a,
			Fset:     u.fset,
			Files:    u.files,
			Pkg:      u.pkg,
			Info:     u.info,
			unit:     u,
			out:      &raw,
		})
		for _, f := range raw {
			if !u.suppressed(f) {
				out = append(out, f)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].pos.Filename != out[j].pos.Filename {
			return out[i].pos.Filename < out[j].pos.Filename
		}
		if out[i].pos.Offset != out[j].pos.Offset {
			return out[i].pos.Offset < out[j].pos.Offset
		}
		return out[i].msg < out[j].msg
	})
	return out
}

func analyzerNames(as []*Analyzer) []string {
	names := make([]string, len(as))
	for i, a := range as {
		names[i] = a.Name
	}
	return names
}
