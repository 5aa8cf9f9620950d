package loader

import (
	"path/filepath"
	"testing"

	"inano/internal/analysis"
)

// TestLoadModulePackage exercises the real driver path: go list -export
// over a small module package, export-data importing for its stdlib deps,
// and type-checking from source (the analyzers need comments and bodies).
func TestLoadModulePackage(t *testing.T) {
	// An import-path pattern, not a ./ one: the test's cwd is this package's
	// directory, but import paths resolve anywhere inside the module.
	units, root, err := Load([]string{"inano/internal/metrics"})
	if err != nil {
		t.Fatal(err)
	}
	if root == "" {
		t.Fatal("no module root")
	}
	var metrics *analysis.Unit
	for _, u := range units {
		if u.Pkg.Path() == "inano/internal/metrics" {
			metrics = u
		}
	}
	if metrics == nil {
		t.Fatalf("inano/internal/metrics not among %d loaded packages", len(units))
	}
	if metrics.Fset == nil || len(metrics.Files) == 0 {
		t.Fatal("metrics package loaded without parsed files")
	}
	// Comments must survive: the analyzers read //inano: directives.
	hasComment := false
	for _, f := range metrics.Files {
		if len(f.Comments) > 0 {
			hasComment = true
		}
	}
	if !hasComment {
		t.Fatal("parsed files carry no comments; analyzers need ParseComments")
	}
	if !filepath.IsAbs(root) {
		t.Fatalf("module root %q is not absolute", root)
	}
}

// TestLoadReportsBrokenPackage: a pattern that matches nothing loadable
// must surface go list's error, not silently analyze zero packages.
func TestLoadReportsBrokenPackage(t *testing.T) {
	_, _, err := Load([]string{"./does/not/exist"})
	if err == nil {
		t.Fatal("Load of a nonexistent pattern succeeded")
	}
}

func TestTypeCheckDirSingle(t *testing.T) {
	dir := filepath.Join("..", "testdata", "src", "lockorder")
	units, _, err := TypeCheckDirs([][2]string{{dir, "lockorder"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 1 || units[0].Pkg.Path() != "lockorder" {
		t.Fatalf("got %d units, want the one package lockorder", len(units))
	}
}

func TestTypeCheckDirsCrossPackage(t *testing.T) {
	// mmapuse imports mmapflat by package path: the later spec must resolve
	// the earlier one from the typed map, not from export data.
	base := filepath.Join("..", "testdata", "src")
	units, fset, err := TypeCheckDirs([][2]string{
		{filepath.Join(base, "mmapflat"), "mmapflat"},
		{filepath.Join(base, "mmapuse"), "mmapuse"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 2 {
		t.Fatalf("units = %d, want 2", len(units))
	}
	use := units[1]
	found := false
	for _, imp := range use.Pkg.Imports() {
		if imp.Path() == "mmapflat" {
			found = true
		}
	}
	if !found {
		t.Fatalf("mmapuse imports %v, missing mmapflat", use.Pkg.Imports())
	}
	if fset != units[0].Fset || fset != use.Fset {
		t.Fatal("units do not share the FileSet; analyzer positions would disagree")
	}
}

func TestTypeCheckDirsRejectsEmptyDir(t *testing.T) {
	if _, _, err := TypeCheckDirs([][2]string{{t.TempDir(), "empty"}}); err == nil {
		t.Fatal("empty dir type-checked successfully")
	}
}

// Checked units from TypeCheckDirs must be usable by the framework as-is.
func TestUnitsRunThroughFramework(t *testing.T) {
	dir := filepath.Join("..", "testdata", "src", "lockorder")
	units, _, err := TypeCheckDirs([][2]string{{dir, "lockorder"}})
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.RunAnalyzers(units, []*analysis.Analyzer{analysis.LockOrder}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) == 0 {
		t.Fatal("lockorder fixture produced no diagnostics through the framework")
	}
}
