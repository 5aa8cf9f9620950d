// Package loader type-checks Go packages for the inanovet analyzers using
// only the standard library and the go command. Module packages are parsed
// from source (the analyzers need comments and bodies); their dependencies
// are imported from the compiled export data the build cache already holds,
// discovered via `go list -export`. This is the same shape x/tools'
// packages.Load(LoadAllSyntax) produces, minus the dependency on a module
// proxy the build container does not have.
package loader

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"inano/internal/analysis"
)

// listEntry is the subset of `go list -json` output the loader reads.
type listEntry struct {
	Dir        string
	ImportPath string
	Name       string
	Export     string
	Standard   bool
	GoFiles    []string
	Incomplete bool
	Error      *struct{ Err string }
	DepsErrors []struct{ Err string }
}

// Load lists patterns (plus their dependency closure), type-checks every
// non-standard package from source, and returns them in dependency order,
// sharing one FileSet, together with the module root directory.
func Load(patterns []string) ([]*analysis.Unit, string, error) {
	args := append([]string{
		"list", "-e", "-deps", "-export",
		"-json=ImportPath,Dir,Name,Export,Standard,GoFiles,Incomplete,Error,DepsErrors",
	}, patterns...)
	out, err := runGo(args...)
	if err != nil {
		return nil, "", err
	}
	root, err := moduleRoot()
	if err != nil {
		return nil, "", err
	}

	fset := token.NewFileSet()
	exports := make(map[string]string)
	typed := make(map[string]*types.Package)
	imp := &depImporter{exports: exports, typed: typed}
	imp.gc = importer.ForCompiler(fset, "gc", imp.lookup)

	var units []*analysis.Unit
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var e listEntry
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, "", fmt.Errorf("go list output: %w", err)
		}
		if e.Error != nil || e.Incomplete {
			msg := "incomplete package"
			if e.Error != nil {
				msg = e.Error.Err
			}
			return nil, "", fmt.Errorf("%s: %s", e.ImportPath, msg)
		}
		if e.Standard {
			if e.Export != "" {
				exports[e.ImportPath] = e.Export
			}
			continue
		}
		u, err := typeCheck(fset, &e, imp)
		if err != nil {
			return nil, "", err
		}
		typed[e.ImportPath] = u.Pkg
		units = append(units, u)
	}
	return units, root, nil
}

// TypeCheckDirs loads several directories as packages sharing one FileSet,
// in order; later directories may import earlier ones by package path (the
// analysistest fixtures exercising cross-package facts need this). Other
// imports are restricted to the standard library.
func TypeCheckDirs(specs [][2]string) ([]*analysis.Unit, *token.FileSet, error) {
	fset := token.NewFileSet()
	typed := map[string]*types.Package{}
	imports := map[string]bool{}
	type parsedPkg struct {
		pkgPath string
		files   []*ast.File
	}
	var parsedPkgs []parsedPkg
	for _, spec := range specs {
		dir, pkgPath := spec[0], spec[1]
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, nil, err
		}
		var parsed []*ast.File
		for _, ent := range entries {
			if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".go") {
				continue
			}
			af, err := parser.ParseFile(fset, filepath.Join(dir, ent.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, nil, err
			}
			for _, spec := range af.Imports {
				imports[strings.Trim(spec.Path.Value, `"`)] = true
			}
			parsed = append(parsed, af)
		}
		if len(parsed) == 0 {
			return nil, nil, fmt.Errorf("no .go files in %s", dir)
		}
		parsedPkgs = append(parsedPkgs, parsedPkg{pkgPath: pkgPath, files: parsed})
	}
	for _, spec := range specs {
		delete(imports, spec[1]) // resolved from typed, not export data
	}
	exports, err := stdlibExports(imports)
	if err != nil {
		return nil, nil, err
	}
	imp := &depImporter{exports: exports, typed: typed}
	imp.gc = importer.ForCompiler(fset, "gc", imp.lookup)
	var units []*analysis.Unit
	for _, p := range parsedPkgs {
		u, err := check(fset, p.pkgPath, p.files, imp)
		if err != nil {
			return nil, nil, err
		}
		typed[p.pkgPath] = u.Pkg
		units = append(units, u)
	}
	return units, fset, nil
}

// stdlibExports resolves export-data files for a set of stdlib import
// paths (plus their dependency closure) via one go list invocation.
func stdlibExports(imports map[string]bool) (map[string]string, error) {
	exports := make(map[string]string)
	if len(imports) == 0 {
		return exports, nil
	}
	args := []string{"list", "-e", "-deps", "-export", "-json=ImportPath,Export,Standard,Error"}
	for p := range imports {
		args = append(args, p)
	}
	out, err := runGo(args...)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var e listEntry
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if e.Export != "" {
			exports[e.ImportPath] = e.Export
		}
	}
	return exports, nil
}

func typeCheck(fset *token.FileSet, e *listEntry, imp *depImporter) (*analysis.Unit, error) {
	var files []*ast.File
	for _, name := range e.GoFiles {
		af, err := parser.ParseFile(fset, filepath.Join(e.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, af)
	}
	return check(fset, e.ImportPath, files, imp)
}

func check(fset *token.FileSet, pkgPath string, files []*ast.File, imp *depImporter) (*analysis.Unit, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	pkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", pkgPath, err)
	}
	return &analysis.Unit{Fset: fset, Files: files, Pkg: pkg, TypesInfo: info}, nil
}

// depImporter resolves imports: already-typechecked module packages first,
// then compiled export data through the gc importer.
type depImporter struct {
	exports map[string]string
	typed   map[string]*types.Package
	gc      types.Importer
}

func (i *depImporter) Import(path string) (*types.Package, error) {
	if p, ok := i.typed[path]; ok {
		return p, nil
	}
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return i.gc.Import(path)
}

func (i *depImporter) lookup(path string) (io.ReadCloser, error) {
	f, ok := i.exports[path]
	if !ok {
		return nil, fmt.Errorf("no export data for %q", path)
	}
	return os.Open(f)
}

func moduleRoot() (string, error) {
	out, err := runGo("list", "-m", "-f", "{{.Dir}}")
	if err != nil {
		return "", err
	}
	return strings.TrimSpace(string(out)), nil
}

func runGo(args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return out, nil
}
