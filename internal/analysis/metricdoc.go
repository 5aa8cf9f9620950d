package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// MetricDoc cross-checks the metrics the code registers against the
// operator-facing reference: every name passed to a Registry constructor
// (NewCounter, NewCounterFunc, NewGauge, NewGaugeFunc, NewHistogram in
// internal/metrics) must appear in docs/api.md. A metric that ships
// undocumented is invisible to whoever builds the dashboards; this turns
// that gap into a lint finding at the registration site. docs/api.md may group families with
// brace shorthand (inanod_tree_cache_{hits,misses}), which is expanded
// before matching.
var MetricDoc = &Analyzer{
	Name: "metricdoc",
	Run:  runMetricDoc,
}

// MetricsPkgPath is the package whose Registry constructors register
// metrics. Exported so the analysistest harness can retarget fixtures.
var MetricsPkgPath = "inano/internal/metrics"

// MetricsDocFile is the documentation file, relative to the repo root.
var MetricsDocFile = filepath.Join("docs", "api.md")

var metricCtors = map[string]bool{
	"NewCounter":     true,
	"NewCounterFunc": true,
	"NewGauge":       true,
	"NewGaugeFunc":   true,
	"NewHistogram":   true,
}

func runMetricDoc(pass *Pass) error {
	documented, docErr := documentedMetrics(filepath.Join(pass.RepoRoot, MetricsDocFile))
	reportedDocErr := false
	for _, file := range pass.Files {
		// Metrics registered by tests never reach an operator's scrape.
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !metricCtors[sel.Sel.Name] || len(call.Args) < 1 {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != MetricsPkgPath {
				return true
			}
			name, ok := constString(pass, call.Args[0])
			if !ok {
				// Dynamic names can't be checked statically;
				// TestDaemonMetricsDocumented renders both daemons'
				// registries and covers those.
				return true
			}
			if docErr != nil {
				if !reportedDocErr {
					pass.Reportf(call.Pos(), "cannot verify metric %q: reading %s: %v", name, MetricsDocFile, docErr)
					reportedDocErr = true
				}
				return true
			}
			if !documented[name] {
				pass.Reportf(call.Args[0].Pos(), "metric %q registered via %s is not documented in %s", name, sel.Sel.Name, MetricsDocFile)
			}
			return true
		})
	}
	return nil
}

// constString evaluates arg as a compile-time constant string.
func constString(pass *Pass, arg ast.Expr) (string, bool) {
	tv, ok := pass.TypesInfo.Types[arg]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// documentedMetrics extracts every documented metric name from the doc
// file: tokens that look like metric identifiers, with {a,b,c} brace
// groups expanded (one level, as used by docs/api.md's metric tables).
func documentedMetrics(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	names := map[string]bool{}
	for _, tok := range splitMetricTokens(string(data)) {
		for _, name := range expandBraces(tok) {
			names[name] = true
		}
		// name{handler} documents metric "name" with a label set, not a
		// brace group: the bare prefix counts as documented too.
		if open := strings.IndexByte(tok, '{'); open > 0 {
			names[tok[:open]] = true
		}
	}
	return names, nil
}

// splitMetricTokens cuts the document into maximal runs of the characters
// that can appear in a metric token, including { } , for brace groups.
func splitMetricTokens(s string) []string {
	isTok := func(r rune) bool {
		return r == '_' || r == '{' || r == '}' || r == ',' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
	}
	var toks []string
	start := -1
	for i, r := range s {
		if isTok(r) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			toks = append(toks, s[start:i])
			start = -1
		}
	}
	if start >= 0 {
		toks = append(toks, s[start:])
	}
	return toks
}

// expandBraces expands prefix{a,b,c}suffix into prefixasuffix, ... . Tokens
// without a well-formed single brace group are returned as-is.
func expandBraces(tok string) []string {
	open := strings.IndexByte(tok, '{')
	if open < 0 {
		return []string{tok}
	}
	close := strings.IndexByte(tok, '}')
	if close < open {
		return []string{tok}
	}
	prefix, group, suffix := tok[:open], tok[open+1:close], tok[close+1:]
	var out []string
	for _, alt := range strings.Split(group, ",") {
		out = append(out, expandBraces(prefix+alt+suffix)...)
	}
	return out
}
