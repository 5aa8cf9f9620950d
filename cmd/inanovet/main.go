// Command inanovet runs the project's analyzer suite (internal/analysis):
// zeroalloc, mmapalias, lockorder and metricdoc — the lint-time proofs of
// inano's hot-path and concurrency invariants — and then cross-checks
// every //inano:zeroalloc function against the compiler's escape analysis.
//
//	inanovet [packages]
//
// Packages default to ./... relative to the module root. The exit status
// is 1 when any diagnostic is reported, 2 on operational failure.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"inano/internal/analysis"
	"inano/internal/analysis/loader"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(patterns []string) int {
	for _, p := range patterns {
		// The patterns go to `go list` and `go build` as they are, where a
		// leading dash would be read as one of their flags.
		if strings.HasPrefix(p, "-") {
			fmt.Fprintln(os.Stderr, "usage: inanovet [packages]")
			return 2
		}
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	units, root, err := loader.Load(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "inanovet: load:", err)
		return 2
	}
	diags, err := analysis.RunAnalyzers(units, analysis.All(), root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "inanovet:", err)
		return 2
	}
	ediags, err := escapeCheck(units, root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "inanovet: escape check:", err)
		return 2
	}
	diags = append(diags, ediags...)
	for _, d := range diags {
		fmt.Printf("%s: [%s] %s\n", relPos(d, root), d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// relPos renders a diagnostic position relative to the module root, which
// keeps output stable across checkouts (and CI log lines clickable).
func relPos(d analysis.Diagnostic, root string) string {
	pos := d.Pos
	if root != "" {
		if rel, err := filepath.Rel(root, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			pos.Filename = rel
		}
	}
	return pos.String()
}
