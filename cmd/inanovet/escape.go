package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"inano/internal/analysis"
)

// escapeCheck replays the compiler's escape analysis (`go build
// -gcflags=-m`) over the loaded packages that hold a //inano:zeroalloc
// function and reports every heap-escape diagnostic that lands inside one
// and is not suppressed by //inano:alloc-ok. The AST walk in the zeroalloc
// analyzer models the compiler; this check asks the compiler itself, so
// the two cross-check each other (the walk runs without a build, this
// catches what the walk cannot prove, e.g. an argument unexpectedly
// escaping through a callee).
func escapeCheck(units []*analysis.Unit, root string) ([]analysis.Diagnostic, error) {
	ranges, pkgs := annotatedRanges(units)
	if len(pkgs) == 0 {
		return nil, nil
	}
	args := append([]string{"build", "-gcflags=-m"}, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m: %v\n%s", err, out.String())
	}
	var diags []analysis.Diagnostic
	for _, line := range strings.Split(out.String(), "\n") {
		file, ln, col, msg, ok := parseEscapeLine(line)
		if !ok {
			continue
		}
		if !strings.Contains(msg, "escapes to heap") && !strings.Contains(msg, "moved to heap") {
			continue
		}
		abs := file
		if !filepath.IsAbs(abs) {
			abs = filepath.Join(root, file)
		}
		fr, ok := ranges[abs]
		if !ok {
			continue
		}
		for _, r := range fr {
			if ln >= r.start && ln <= r.end && !r.suppressed[ln] && !r.suppressed[ln-1] {
				diags = append(diags, analysis.Diagnostic{
					Pos:      token.Position{Filename: abs, Line: ln, Column: col},
					Analyzer: "zeroalloc/escape",
					Message:  fmt.Sprintf("compiler: %s (inside //inano:zeroalloc %s)", msg, r.name),
				})
				break
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return diags, nil
}

// funcRange is the source extent of one annotated function.
type funcRange struct {
	name       string
	start, end int
	suppressed map[int]bool // lines carrying //inano:alloc-ok
}

// annotatedRanges maps absolute file path -> the //inano:zeroalloc
// function extents in it, and lists the import paths of the packages that
// hold them: the packages the escape check builds.
func annotatedRanges(units []*analysis.Unit) (map[string][]funcRange, []string) {
	out := map[string][]funcRange{}
	var pkgs []string
	for _, u := range units {
		fset, annotated := u.Fset, false
		for _, f := range u.Files {
			var sup map[int]bool
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !analysis.HasZeroAllocDirective(fd) {
					continue
				}
				if sup == nil {
					sup = analysis.AllocOKLines(fset, f)
				}
				annotated = true
				start := fset.Position(fd.Pos())
				end := fset.Position(fd.End())
				out[start.Filename] = append(out[start.Filename], funcRange{
					name:       fd.Name.Name,
					start:      start.Line,
					end:        end.Line,
					suppressed: sup,
				})
			}
		}
		if annotated {
			pkgs = append(pkgs, u.Pkg.Path())
		}
	}
	return out, pkgs
}

// parseEscapeLine splits "path:line:col: message" (column optional).
func parseEscapeLine(line string) (file string, ln, col int, msg string, ok bool) {
	line = strings.TrimSpace(line)
	i := strings.Index(line, ".go:")
	if i < 0 {
		return "", 0, 0, "", false
	}
	file = line[:i+3]
	rest := line[i+4:]
	parts := strings.SplitN(rest, ":", 3)
	if len(parts) < 2 {
		return "", 0, 0, "", false
	}
	ln, err := strconv.Atoi(parts[0])
	if err != nil {
		return "", 0, 0, "", false
	}
	if len(parts) == 3 {
		if c, err := strconv.Atoi(parts[1]); err == nil {
			return file, ln, c, strings.TrimSpace(parts[2]), true
		}
	}
	return file, ln, 0, strings.TrimSpace(strings.Join(parts[1:], ":")), true
}
