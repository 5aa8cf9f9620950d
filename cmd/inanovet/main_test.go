package main

import (
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"inano/internal/analysis"
	"inano/internal/analysis/loader"
)

func TestParseEscapeLine(t *testing.T) {
	cases := []struct {
		in      string
		file    string
		ln, col int
		msg     string
		ok      bool
	}{
		{"./internal/core/path.go:110:28: ctx escapes to heap", "./internal/core/path.go", 110, 28, "ctx escapes to heap", true},
		{"path.go:7: moved to heap: x", "path.go", 7, 0, "moved to heap: x", true},
		{"# inano/internal/core", "", 0, 0, "", false},
		{"notafile.txt:3:1: whatever", "", 0, 0, "", false},
		{"bad.go:notanumber: msg", "", 0, 0, "", false},
	}
	for _, c := range cases {
		file, ln, col, msg, ok := parseEscapeLine(c.in)
		if ok != c.ok || file != c.file || ln != c.ln || col != c.col || msg != c.msg {
			t.Errorf("parseEscapeLine(%q) = (%q,%d,%d,%q,%v), want (%q,%d,%d,%q,%v)",
				c.in, file, ln, col, msg, ok, c.file, c.ln, c.col, c.msg, c.ok)
		}
	}
}

const annotatedSrc = `package hot

// Hot is on the zero-alloc path.
//
//inano:zeroalloc
func Hot() {
	_ = 1
	//inano:alloc-ok amortized
	_ = 2
	_ = 3
}

func Cold() {}
`

// loadFixture type-checks two packages: hot, which holds one annotated
// function, and plain, which holds none.
func loadFixture(t *testing.T) (units []*analysis.Unit, hotFile string) {
	t.Helper()
	dir := t.TempDir()
	srcs := map[string]string{"hot": annotatedSrc, "plain": "package plain\n\nfunc Plain() {}\n"}
	var specs [][2]string
	for _, pkg := range []string{"hot", "plain"} {
		pkgDir := filepath.Join(dir, pkg)
		if err := os.Mkdir(pkgDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(pkgDir, pkg+".go"), []byte(srcs[pkg]), 0o644); err != nil {
			t.Fatal(err)
		}
		specs = append(specs, [2]string{pkgDir, pkg})
	}
	units, _, err := loader.TypeCheckDirs(specs)
	if err != nil {
		t.Fatal(err)
	}
	return units, filepath.Join(dir, "hot", "hot.go")
}

func TestAnnotatedRanges(t *testing.T) {
	units, hotFile := loadFixture(t)
	ranges, _ := annotatedRanges(units)
	fr, ok := ranges[hotFile]
	if !ok || len(ranges) != 1 || len(fr) != 1 {
		t.Fatalf("ranges = %v, want one entry for %s", ranges, hotFile)
	}
	r := fr[0]
	if r.name != "Hot" {
		t.Fatalf("annotated function = %q, want Hot (Cold is unannotated)", r.name)
	}
	// The extent must span the body; the alloc-ok comment line and the line
	// after it are suppressed.
	if !(r.start <= 6 && r.end >= 11) {
		t.Fatalf("range [%d,%d] does not span Hot's body", r.start, r.end)
	}
	if !r.suppressed[8] {
		t.Fatalf("suppressed = %v, want the //inano:alloc-ok line marked", r.suppressed)
	}
}

// TestEscapePackages: the escape check builds exactly the packages that
// hold an //inano:zeroalloc function, whatever patterns were loaded.
func TestEscapePackages(t *testing.T) {
	units, _ := loadFixture(t)
	if _, pkgs := annotatedRanges(units); !slices.Equal(pkgs, []string{"hot"}) {
		t.Fatalf("escape packages = %q, want [hot]", pkgs)
	}
}

// TestRunRejectsFlags: inanovet has no options, and a leading dash must
// not reach go list or go build as one of theirs.
func TestRunRejectsFlags(t *testing.T) {
	for _, args := range [][]string{{"-json"}, {"./...", "-escape"}} {
		if got := run(args); got != 2 {
			t.Fatalf("run(%q) = %d, want 2", args, got)
		}
	}
}

func TestRelPos(t *testing.T) {
	d := analysis.Diagnostic{Pos: token.Position{Filename: "/repo/internal/core/path.go", Line: 3, Column: 7}}
	if got := relPos(d, "/repo"); got != "internal/core/path.go:3:7" {
		t.Fatalf("relPos inside root = %q", got)
	}
	if got := relPos(d, "/elsewhere"); got != "/repo/internal/core/path.go:3:7" {
		t.Fatalf("relPos outside root = %q, want absolute path kept", got)
	}
}
