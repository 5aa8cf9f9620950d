// Package analysistest runs inanovet analyzers over fixture packages and
// checks their diagnostics against // want "regex" comments — the same
// convention as golang.org/x/tools/go/analysis/analysistest, reimplemented
// over the stdlib-only loader. A want comment attaches to its own source
// line; every diagnostic on that line must match one of the quoted
// regexps, every regexp must match at least one diagnostic, and lines
// without a want comment must stay silent.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"inano/internal/analysis"
	"inano/internal/analysis/loader"
)

// expectation is one compiled want regexp at a file:line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	hit  bool
}

var wantRE = regexp.MustCompile(`//\s*want\b(.*)$`)
var quoteRE = regexp.MustCompile(`(?:\x60[^\x60]*\x60)|(?:"(?:[^"\\]|\\.)*")`)

// Run typechecks testdata/src/<pkg> for each named package (in order, so
// later fixtures may import earlier ones), runs the analyzers, and
// verifies the // want expectations.
func Run(t *testing.T, testdata string, pkgs []string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	specs := make([][2]string, len(pkgs))
	for i, p := range pkgs {
		specs[i] = [2]string{filepath.Join(testdata, "src", p), p}
	}
	units, fset, err := loader.TypeCheckDirs(specs)
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	var wants []*expectation
	for _, u := range units {
		for _, f := range u.Files {
			ws, err := collectWants(fset, f)
			if err != nil {
				t.Fatal(err)
			}
			wants = append(wants, ws...)
		}
	}
	diags, err := analysis.RunAnalyzers(units, analyzers, testdata)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, d := range diags {
		if !claim(wants, d) {
			t.Errorf("unexpected diagnostic at %s:%d: [%s] %s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matching %q", filepath.Base(w.file), w.line, w.raw)
		}
	}
}

// claim marks the first unhit expectation matching d; a want regexp that
// several diagnostics satisfy may be claimed once per diagnostic.
func claim(wants []*expectation, d analysis.Diagnostic) bool {
	for _, w := range wants {
		if w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
			w.hit = true
			return true
		}
	}
	return false
}

// collectWants extracts the expectations of one parsed file.
func collectWants(fset *token.FileSet, f *ast.File) ([]*expectation, error) {
	var out []*expectation
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := wantRE.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			pos := fset.Position(c.Pos())
			quoted := quoteRE.FindAllString(m[1], -1)
			if len(quoted) == 0 {
				return nil, fmt.Errorf("%s:%d: want comment with no quoted pattern", pos.Filename, pos.Line)
			}
			for _, q := range quoted {
				var pat string
				if strings.HasPrefix(q, "`") {
					pat = strings.Trim(q, "`")
				} else {
					var err error
					pat, err = strconv.Unquote(q)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, q, err)
					}
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
				}
				out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: pat})
			}
		}
	}
	return out, nil
}
