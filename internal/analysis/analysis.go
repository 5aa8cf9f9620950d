// Package analysis is a dependency-free miniature of the
// golang.org/x/tools/go/analysis framework, housing the project-specific
// analyzers that prove inano's hot-path and concurrency invariants at lint
// time (see docs/development.md for the catalogue and the annotation
// contract). The container this repository builds in has no module proxy,
// so the framework itself — Analyzer, Pass, diagnostics, cross-package
// facts — is reimplemented here on the standard library's go/ast and
// go/types; the API deliberately mirrors x/tools so the analyzers could be
// ported to a real multichecker by swapping imports.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one static check. Collect, when non-nil, runs over every
// package before any Run: it records package-source facts (e.g. which
// struct fields carry an //inano:mmap marker) into the shared FactStore,
// so a Run pass over package P can act on annotations declared in package
// Q even though Q is only visible to P as compiled export data.
type Analyzer struct {
	Name string

	// Collect gathers cross-package facts. It must only write pass.Facts
	// and must not report diagnostics.
	Collect func(pass *Pass) error

	// Run performs the check, reporting findings via pass.Report*.
	Run func(pass *Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Facts is shared across all packages of one driver invocation.
	Facts *FactStore

	// RepoRoot is the module root directory, for analyzers that check
	// source against repository files (metricdoc reads docs/api.md).
	// Empty when unknown; such analyzers must then skip, not fail.
	RepoRoot string

	diagnostics *[]Diagnostic
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diagnostics = append(*p.diagnostics, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// FactStore is the cross-package annotation database: keys recorded under
// per-analyzer namespaces ("mmap.fields"), each key encoding whatever the
// analyzer needs ("inano/internal/atlas.Flat.EdgeLat").
type FactStore struct {
	m map[[2]string]bool
}

// Add records key under namespace ns.
func (s *FactStore) Add(ns, key string) { s.m[[2]string{ns, key}] = true }

// Has reports whether key is recorded under ns.
func (s *FactStore) Has(ns, key string) bool { return s.m[[2]string{ns, key}] }

// Unit is one loaded, type-checked package handed to the driver.
type Unit struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
}

// RunAnalyzers executes the full two-phase protocol — every analyzer's
// Collect over every unit, then every Run — and returns the diagnostics
// sorted by position.
func RunAnalyzers(units []*Unit, analyzers []*Analyzer, repoRoot string) ([]Diagnostic, error) {
	facts := &FactStore{m: map[[2]string]bool{}}
	var diags []Diagnostic
	pass := func(a *Analyzer, u *Unit) *Pass {
		return &Pass{
			Analyzer:    a,
			Fset:        u.Fset,
			Files:       u.Files,
			Pkg:         u.Pkg,
			TypesInfo:   u.TypesInfo,
			Facts:       facts,
			RepoRoot:    repoRoot,
			diagnostics: &diags,
		}
	}
	for _, a := range analyzers {
		if a.Collect == nil {
			continue
		}
		for _, u := range units {
			if err := a.Collect(pass(a, u)); err != nil {
				return nil, fmt.Errorf("%s: collect %s: %w", a.Name, u.Pkg.Path(), err)
			}
		}
	}
	for _, a := range analyzers {
		if a.Run == nil {
			continue
		}
		for _, u := range units {
			if err := a.Run(pass(a, u)); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, u.Pkg.Path(), err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// All returns the full analyzer suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{ZeroAlloc, MmapAlias, LockOrder, MetricDoc}
}
