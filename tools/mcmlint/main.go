package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// lintVersion keys cmd/go's vet result cache (via -V=full): bump it
// whenever any analyzer's rules change, or stale results will be served.
const lintVersion = "v7.0.0"

func main() {
	os.Exit(run(os.Args[1:]))
}

// run speaks the cmd/go vettool protocol and nothing else: the two probes
// go vet sends before any work, then one build unit per invocation.
func run(args []string) int {
	if len(args) == 1 {
		switch a := args[0]; {
		case a == "-V=full" || a == "-V":
			// Tool-identity probe; the output is the vet cache key.
			fmt.Printf("mcmlint version %s\n", lintVersion)
			return 0
		case a == "-flags":
			// Flag discovery: none are exposed through go vet.
			fmt.Println("[]")
			return 0
		case strings.HasSuffix(a, ".cfg"):
			return runVetUnit(a)
		}
	}
	fmt.Fprintln(os.Stderr, "usage: go vet -vettool=/path/to/mcmlint ./...")
	return 1
}

// vetConfig mirrors the fields of cmd/go's vet config JSON that mcmlint
// needs (the full struct is x/tools' unitchecker.Config; unknown fields
// are ignored by encoding/json). ImportMap and PackageFile let the loader
// type-check against prebuilt export data instead of compiling
// dependencies from source.
type vetConfig struct {
	ID          string
	Dir         string
	ImportPath  string
	GoFiles     []string
	ImportMap   map[string]string
	PackageFile map[string]string
	VetxOnly    bool
	VetxOutput  string
}

// runVetUnit handles one go-vet build unit. Dependency units arrive with
// VetxOnly=true and are skipped (mcmlint exports no facts); target units
// are parsed, type-checked, and linted. The facts file must exist
// afterwards or cmd/go reports the tool as failed, so an empty one is
// always written.
func runVetUnit(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcmlint: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "mcmlint: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	writeVetx := func() {
		if cfg.VetxOutput != "" {
			if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
				fmt.Fprintf(os.Stderr, "mcmlint: %v\n", err)
			}
		}
	}
	if cfg.VetxOnly {
		writeVetx()
		return 0
	}
	u, err := loadUnit(cfg.ImportPath, cfg.Dir, cfg.GoFiles, &exportLookup{
		importMap:   cfg.ImportMap,
		packageFile: cfg.PackageFile,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcmlint: %s: %v\n", cfg.ImportPath, err)
		return 1
	}
	writeVetx()
	return report(lintUnit(u, allAnalyzers))
}

// report prints the findings on stderr. Exit status 2 signals findings,
// matching vet convention.
func report(findings []finding) int {
	for _, f := range findings {
		fmt.Fprintf(os.Stderr, "%s: %s\n", f.pos, f.msg)
	}
	if len(findings) == 0 {
		return 0
	}
	return 2
}
