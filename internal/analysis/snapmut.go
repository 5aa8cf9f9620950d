package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// SnapMut flags in-place mutation of an atlas.Atlas after it has been
// handed to a snapshot-compiling constructor (core.New, inano.FromAtlas,
// ...). The engine compiles the map-based atlas into an immutable flat
// snapshot at construction; writing a.PrefixCluster[p] = c afterwards
// changes nothing the engine serves — the compiled-snapshot invisibility
// trap that bit the server tests in PR 6. The correct idioms are
// ApplyDelta (merges into a new compiled atlas and publishes it) or
// rebuilding the engine, and the diagnostic says so.
//
// The check is intraprocedural and position-based: within one function,
// a map write / delete / field reassignment on a variable that was passed
// to a snapshot taker earlier in the source is reported. That is exactly
// the shape the trap takes in practice (tests and examples build an atlas,
// construct an engine, then keep editing the atlas variable).
var SnapMut = &Analyzer{
	Name: "snapmut",
	Doc:  "flag in-place atlas mutation after the engine snapshotted it",
	Run:  runSnapMut,
}

// SnapshotTakers are the fully-qualified functions whose atlas argument is
// compiled into a snapshot at call time. Exported (with SnapshotAtlasType)
// so the analysistest harness can retarget the check at fixture types.
var SnapshotTakers = map[string]bool{
	"inano/internal/core.New": true,
	"inano.FromAtlas":         true,
	"inano.FromAtlasOptions":  true,
}

// SnapshotAtlasType is the fully-qualified snapshotted type.
var SnapshotAtlasType = "inano/internal/atlas.Atlas"

func runSnapMut(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkSnapMut(pass, fd.Body)
			}
		}
	}
	return nil
}

// snapshotCall records one atlas-consuming constructor call.
type snapshotCall struct {
	pos    token.Pos
	callee string
}

func checkSnapMut(pass *Pass, body *ast.BlockStmt) {
	// Pass 1: find atlas variables handed to snapshot takers.
	snapped := map[types.Object]snapshotCall{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeName(pass, call)
		if callee == "" || !SnapshotTakers[callee] {
			return true
		}
		for _, arg := range call.Args {
			id := atlasIdent(pass, arg)
			if id == nil {
				continue
			}
			obj := pass.TypesInfo.Uses[id]
			if obj == nil {
				continue
			}
			if prev, ok := snapped[obj]; !ok || call.Pos() < prev.pos {
				snapped[obj] = snapshotCall{pos: call.Pos(), callee: callee}
			}
		}
		return true
	})
	if len(snapped) == 0 {
		return
	}
	// Pass 2: report mutations positioned after the snapshot call.
	report := func(pos token.Pos, base *ast.Ident, what string) {
		obj := pass.TypesInfo.Uses[base]
		if obj == nil {
			return
		}
		sc, ok := snapped[obj]
		if !ok || pos < sc.pos {
			return
		}
		pass.Reportf(pos, "%s mutates atlas %s in place after %s compiled it into a snapshot at %s (the engine cannot see this; use ApplyDelta or rebuild the engine)",
			what, base.Name, sc.callee, pass.Fset.Position(sc.pos))
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				switch l := lhs.(type) {
				case *ast.IndexExpr:
					if sel, base := atlasFieldSel(pass, l.X); sel != nil {
						report(n.Pos(), base, "map/element write "+exprString(l.X)+"[...]")
					}
				case *ast.SelectorExpr:
					if sel, base := atlasFieldSel(pass, l); sel != nil {
						report(n.Pos(), base, "field reassignment "+exprString(l))
					}
				}
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && len(n.Args) >= 1 {
				if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
					switch b.Name() {
					case "delete":
						if sel, base := atlasFieldSel(pass, n.Args[0]); sel != nil {
							report(n.Pos(), base, "delete from "+exprString(n.Args[0]))
						}
					case "append":
						if sel, base := atlasFieldSel(pass, n.Args[0]); sel != nil {
							report(n.Pos(), base, "append to "+exprString(n.Args[0]))
						}
					}
				}
			}
		}
		return true
	})
}

// calleeName resolves a call's target to "pkgpath.Func" ("" when not a
// simple named function).
func calleeName(pass *Pass, call *ast.CallExpr) string {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return ""
	}
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// atlasIdent returns the identifier when arg is an atlas variable (a or
// &a of the snapshotted type), nil otherwise.
func atlasIdent(pass *Pass, arg ast.Expr) *ast.Ident {
	if ue, ok := arg.(*ast.UnaryExpr); ok && ue.Op.String() == "&" {
		arg = ue.X
	}
	id, ok := arg.(*ast.Ident)
	if !ok {
		return nil
	}
	if !isAtlasType(pass.TypesInfo.TypeOf(id)) {
		return nil
	}
	return id
}

// atlasFieldSel matches expressions of the shape a.Field where a is an
// atlas variable, returning the selector and the base identifier.
func atlasFieldSel(pass *Pass, e ast.Expr) (*ast.SelectorExpr, *ast.Ident) {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || !isAtlasType(pass.TypesInfo.TypeOf(id)) {
		return nil, nil
	}
	if s, ok := pass.TypesInfo.Selections[sel]; !ok || s.Kind() != types.FieldVal {
		return nil, nil
	}
	return sel, id
}

func isAtlasType(t types.Type) bool {
	if t == nil {
		return false
	}
	named := namedOf(t)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	full := named.Obj().Pkg().Path() + "." + named.Obj().Name()
	if full == SnapshotAtlasType {
		return true
	}
	// Test fixtures use a bare package name path.
	return strings.HasSuffix(SnapshotAtlasType, "."+named.Obj().Name()) &&
		named.Obj().Pkg().Path() == strings.TrimSuffix(SnapshotAtlasType, "."+named.Obj().Name())
}
