package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// MmapAlias enforces the read-only contract of slices that may alias a
// shared file mapping: struct fields annotated //inano:mmap (the zero-copy
// arrays of atlas.Flat, built by unsafe.Slice over an INANOFL1 mmap) must
// never be the target of an element write, an append, or a copy
// destination, and must not be retained in globals or other structs where
// they could outlive the mapping's Close — nor handed to a second
// annotated struct (the Flat a day roll derives from a mapped one must own
// its memory). Writing through such a slice
// either faults (read-only mapping) or silently corrupts every replica
// sharing the page cache — a class of bug no test reliably catches.
//
// The fields are discovered in a Collect pre-pass, so the check applies in
// every package that touches them, not just the declaring one. Writes
// through a struct value freshly constructed in the same function (the
// Compile/parseFlat build path, where the slices are still private) are
// allowed: the invariant attaches when the value escapes the constructor.
var MmapAlias = &Analyzer{
	Name:    "mmapalias",
	Collect: collectMmapFields,
	Run:     runMmapAlias,
}

const mmapFieldsNS = "mmap.fields"

// collectMmapFields records "pkgpath.Type.Field" for every annotated field.
func collectMmapFields(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					if !hasDirective(field.Doc, DirectiveMmapSafe) && !hasDirective(field.Comment, DirectiveMmapSafe) {
						continue
					}
					for _, name := range field.Names {
						pass.Facts.Add(mmapFieldsNS, pass.Pkg.Path()+"."+ts.Name.Name+"."+name.Name)
					}
				}
			}
		}
	}
	return nil
}

func runMmapAlias(pass *Pass) error {
	for _, file := range pass.Files {
		// Tests mutate heap-built Flat fixtures (Compile output, never
		// mapping-backed) on purpose; the contract binds serving code.
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ma := &mmapAliasCheck{pass: pass}
			ma.checkFunc(fd.Body)
		}
	}
	return nil
}

type mmapAliasCheck struct {
	pass *Pass
	// fresh holds locals initialized from &T{}/T{}/new(T) in this
	// function: a struct still being built, whose slices are private.
	fresh map[types.Object]bool
	// aliases holds locals assigned from a protected expression: writing
	// through them is writing through the mapping.
	aliases map[types.Object]bool
}

func (ma *mmapAliasCheck) checkFunc(body *ast.BlockStmt) {
	ma.fresh = map[types.Object]bool{}
	ma.aliases = map[types.Object]bool{}
	// Two passes over the assignment graph so alias chains (x := f.EdgeLat;
	// y := x[1:]) resolve regardless of declaration order.
	for range 2 {
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := ma.objOf(id)
				if obj == nil {
					continue
				}
				switch rhs := as.Rhs[i].(type) {
				case *ast.CompositeLit:
					ma.fresh[obj] = true
				case *ast.UnaryExpr:
					if _, lit := rhs.X.(*ast.CompositeLit); lit && rhs.Op.String() == "&" {
						ma.fresh[obj] = true
					}
				case *ast.CallExpr:
					if bid, ok := rhs.Fun.(*ast.Ident); ok {
						if b, ok := ma.pass.TypesInfo.Uses[bid].(*types.Builtin); ok && b.Name() == "new" {
							ma.fresh[obj] = true
						}
					}
				}
				if ma.protected(as.Rhs[i]) {
					ma.aliases[obj] = true
				}
			}
			return true
		})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			ma.checkAssign(n)
		case *ast.IncDecStmt:
			if ix, ok := n.X.(*ast.IndexExpr); ok && ma.protected(ix.X) {
				ma.pass.Reportf(n.Pos(), "write to mmap-aliased slice %s", exprString(ix.X))
			}
		case *ast.CallExpr:
			ma.checkCall(n)
		}
		return true
	})
}

func (ma *mmapAliasCheck) objOf(id *ast.Ident) types.Object {
	if o := ma.pass.TypesInfo.Defs[id]; o != nil {
		return o
	}
	return ma.pass.TypesInfo.Uses[id]
}

// protected reports whether e aliases an //inano:mmap field: the selector
// itself, a slice of it, or a local already known to alias one.
func (ma *mmapAliasCheck) protected(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return ma.protected(e.X)
	case *ast.SliceExpr:
		return ma.protected(e.X)
	case *ast.Ident:
		obj := ma.objOf(e)
		return obj != nil && ma.aliases[obj]
	case *ast.SelectorExpr:
		key, base := ma.fieldKey(e)
		if key == "" || !ma.pass.Facts.Has(mmapFieldsNS, key) {
			return false
		}
		// A field of a struct still under construction in this function is
		// not yet mapping-backed.
		if id, ok := base.(*ast.Ident); ok {
			if obj := ma.objOf(id); obj != nil && ma.fresh[obj] {
				return false
			}
		}
		return true
	}
	return false
}

// fieldKey resolves a selector to its "pkgpath.Type.Field" fact key and
// the base expression ("" when not a struct field selection).
func (ma *mmapAliasCheck) fieldKey(sel *ast.SelectorExpr) (string, ast.Expr) {
	s, ok := ma.pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return "", nil
	}
	f := s.Obj().(*types.Var)
	named := namedOf(s.Recv())
	if named == nil || f.Pkg() == nil {
		return "", nil
	}
	return f.Pkg().Path() + "." + named.Obj().Name() + "." + f.Name(), sel.X
}

func (ma *mmapAliasCheck) checkAssign(as *ast.AssignStmt) {
	for _, lhs := range as.Lhs {
		if ix, ok := lhs.(*ast.IndexExpr); ok && ma.protected(ix.X) {
			ma.pass.Reportf(as.Pos(), "write to mmap-aliased slice %s (read-only mapping)", exprString(ix.X))
		}
		// Reassigning the whole field outside its declaring package
		// detaches serving state from the mapping mid-flight.
		if sel, ok := lhs.(*ast.SelectorExpr); ok {
			if key, base := ma.fieldKey(sel); key != "" && ma.pass.Facts.Has(mmapFieldsNS, key) {
				declPkg := key[:strings.LastIndex(key[:strings.LastIndex(key, ".")], ".")]
				freshBase := false
				if id, ok := base.(*ast.Ident); ok {
					if obj := ma.objOf(id); obj != nil && ma.fresh[obj] {
						freshBase = true
					}
				}
				if declPkg != ma.pass.Pkg.Path() && !freshBase {
					ma.pass.Reportf(as.Pos(), "reassignment of mmap-aliased field %s outside %s", exprString(sel), declPkg)
				}
			}
		}
	}
	// Retention: a protected slice stored into a global or a struct field
	// can outlive FlatFile.Close and fault on a dead mapping.
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, rhs := range as.Rhs {
		if !ma.protected(rhs) {
			continue
		}
		switch lhs := as.Lhs[i].(type) {
		case *ast.Ident:
			if obj := ma.objOf(lhs); obj != nil && obj.Parent() == ma.pass.Pkg.Scope() {
				ma.pass.Reportf(as.Pos(), "mmap-aliased slice retained in package-level %s (may outlive Close)", lhs.Name)
			}
		case *ast.SelectorExpr:
			if s, ok := ma.pass.TypesInfo.Selections[lhs]; ok && s.Kind() == types.FieldVal {
				if key, _ := ma.fieldKey(lhs); key == "" || !ma.pass.Facts.Has(mmapFieldsNS, key) {
					ma.pass.Reportf(as.Pos(), "mmap-aliased slice retained in struct field %s (may outlive Close)", exprString(lhs))
				} else {
					// One mapping-backed value handing its slice to another
					// (a Flat derived from a mapped Flat, say): the second
					// is published and served after the first is closed.
					ma.pass.Reportf(as.Pos(), "mmap-aliased slice %s carried into %s, which may outlive the mapping's Close (copy it)", exprString(rhs), exprString(lhs))
				}
			}
		}
	}
}

func (ma *mmapAliasCheck) checkCall(call *ast.CallExpr) {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return
	}
	b, ok := ma.pass.TypesInfo.Uses[id].(*types.Builtin)
	if !ok || len(call.Args) == 0 {
		return
	}
	switch b.Name() {
	case "append":
		if ma.protected(call.Args[0]) {
			ma.pass.Reportf(call.Pos(), "append to mmap-aliased slice %s (writes the mapping in place)", exprString(call.Args[0]))
		}
	case "copy":
		if ma.protected(call.Args[0]) {
			ma.pass.Reportf(call.Pos(), "copy into mmap-aliased slice %s (read-only mapping)", exprString(call.Args[0]))
		}
	}
}

func namedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// exprString renders a simple expression chain for diagnostics.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return "(" + exprString(e.X) + ")"
	case *ast.SliceExpr:
		return exprString(e.X) + "[...]"
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	}
	return "expr"
}
