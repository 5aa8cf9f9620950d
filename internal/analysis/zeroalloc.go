package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ZeroAlloc checks functions annotated //inano:zeroalloc for constructs the
// compiler's escape analysis would heap-allocate: make/new, slice and map
// literals, &composite literals, appends to fresh slices, closures, go
// statements, string concatenation and string<->[]byte conversions, method
// values, and implicit conversions of non-pointer-shaped values to
// interface types. The warm-path alloc-count tests (TestWarmQueryZeroAlloc
// and friends) gate one benchmarked window; this analyzer gates every line
// of every annotated function, on every build, with the finding on the
// offending construct instead of a flaky counter in bench CI.
//
// A line whose allocation is intentional (amortized buffer growth, a
// first-use sizing) is suppressed with //inano:alloc-ok <reason> on or
// directly above it. The check is intraprocedural: callees must either be
// annotated themselves or be known-clean (cmd/inanovet's escape check
// cross-checks the compiler's actual escape log over the same functions).
var ZeroAlloc = &Analyzer{
	Name: "zeroalloc",
	Run:  runZeroAlloc,
}

func runZeroAlloc(pass *Pass) error {
	for _, file := range pass.Files {
		suppress := directiveLines(pass.Fset, file)
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasDirective(fd.Doc, DirectiveZeroArc) {
				continue
			}
			za := &zeroAllocCheck{pass: pass, suppress: suppress, fd: fd}
			za.checkFunc(fd.Body)
		}
	}
	return nil
}

type zeroAllocCheck struct {
	pass     *Pass
	suppress map[int][]string
	fd       *ast.FuncDecl
	// calleePos marks expressions appearing in call position, so a method
	// selector being invoked is not misread as an allocating method value.
	calleePos map[ast.Expr]bool
	// safeConv marks string([]byte) conversions the compiler elides: used
	// only as a comparison operand or a map-index key, no copy is made.
	safeConv map[ast.Expr]bool
}

func (za *zeroAllocCheck) report(pos ast.Node, format string, args ...any) {
	if suppressedAt(za.suppress, za.pass.Fset, pos.Pos(), DirectiveAllocOK) {
		return
	}
	za.pass.Reportf(pos.Pos(), format, args...)
}

// checkFunc walks one annotated function body. Nested function literals are
// flagged as a whole (the closure itself allocates) and not descended into.
func (za *zeroAllocCheck) checkFunc(body *ast.BlockStmt) {
	za.calleePos = make(map[ast.Expr]bool)
	za.safeConv = make(map[ast.Expr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			za.calleePos[n.Fun] = true
		case *ast.BinaryExpr:
			switch n.Op {
			case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
				za.markSafeConv(n.X)
				za.markSafeConv(n.Y)
			}
		case *ast.IndexExpr:
			if t := za.typeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					za.markSafeConv(n.Index)
				}
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			za.report(n, "closure literal allocates (heap-allocated func value and captures)")
			return false // the closure's own body is not on the annotated path
		case *ast.GoStmt:
			za.report(n, "go statement allocates a goroutine stack")
			return false
		case *ast.CompositeLit:
			za.checkCompositeLit(n)
		case *ast.UnaryExpr:
			za.checkUnary(n)
		case *ast.CallExpr:
			za.checkCall(n)
		case *ast.BinaryExpr:
			za.checkBinary(n)
		case *ast.SelectorExpr:
			za.checkMethodValue(n)
		case *ast.AssignStmt:
			za.checkAssign(n)
		case *ast.ValueSpec:
			if n.Type != nil {
				if t := za.typeOf(n.Type); t != nil {
					for _, v := range n.Values {
						za.checkIfaceConv(v, t)
					}
				}
			}
		case *ast.ReturnStmt:
			za.checkReturn(n)
		}
		return true
	})
}

// markSafeConv records e when it is a conversion call whose result the
// compiler can use without materializing (comparison operand, map key).
func (za *zeroAllocCheck) markSafeConv(e ast.Expr) {
	if p, ok := e.(*ast.ParenExpr); ok {
		za.markSafeConv(p.X)
		return
	}
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return
	}
	if tv, ok := za.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		za.safeConv[call] = true
	}
}

func (za *zeroAllocCheck) typeOf(e ast.Expr) types.Type {
	return za.pass.TypesInfo.TypeOf(e)
}

func (za *zeroAllocCheck) checkCompositeLit(n *ast.CompositeLit) {
	t := za.typeOf(n)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		za.report(n, "slice literal allocates its backing array")
	case *types.Map:
		za.report(n, "map literal allocates")
	}
	// Struct and fixed-size array literals are stack values unless their
	// address escapes; &T{...} is handled by checkUnary.
}

func (za *zeroAllocCheck) checkUnary(n *ast.UnaryExpr) {
	if n.Op.String() != "&" {
		return
	}
	if _, ok := n.X.(*ast.CompositeLit); ok {
		za.report(n, "&composite literal escapes to the heap")
	}
}

func (za *zeroAllocCheck) checkCall(call *ast.CallExpr) {
	info := za.pass.TypesInfo
	// Type conversion: T(x).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		za.checkConversion(call, tv.Type, call.Args[0])
		return
	}
	// Builtins.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				za.report(call, "make allocates")
			case "new":
				za.report(call, "new allocates")
			case "append":
				za.checkAppend(call)
			}
			return
		}
	}
	// Ordinary call: arguments implicitly converted to interface
	// parameters are boxed.
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // s... spreads an existing slice, no boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		za.checkIfaceConv(arg, pt)
	}
	if sig.Variadic() && !call.Ellipsis.IsValid() && len(call.Args) > params.Len()-1 {
		// The variadic backing slice itself is an allocation when any
		// variadic argument is passed.
		za.report(call, "variadic call allocates its argument slice")
	}
}

// checkConversion flags T(x) conversions that copy memory or box.
func (za *zeroAllocCheck) checkConversion(n ast.Node, to types.Type, arg ast.Expr) {
	from := za.typeOf(arg)
	if from == nil {
		return
	}
	toU, fromU := to.Underlying(), from.Underlying()
	if isString(toU) && isByteOrRuneSlice(fromU) {
		if e, ok := n.(ast.Expr); ok && za.safeConv[e] {
			return // comparison operand / map key: the compiler elides the copy
		}
		za.report(n, "[]byte/[]rune to string conversion allocates")
		return
	}
	if isByteOrRuneSlice(toU) && isString(fromU) {
		za.report(n, "string to []byte/[]rune conversion allocates")
		return
	}
	za.checkIfaceConvTo(n, arg, to)
}

func (za *zeroAllocCheck) checkAppend(call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	dst := call.Args[0]
	if tv, ok := za.pass.TypesInfo.Types[dst]; ok && tv.IsNil() {
		za.report(call, "append to nil slice allocates")
		return
	}
	if _, ok := dst.(*ast.CompositeLit); ok {
		za.report(call, "append to a fresh slice literal allocates")
	}
	// Appends into caller-provided or pre-grown buffers are the idiom the
	// hot paths are built on; whether they regrow is a capacity question
	// the alloc-count tests and the escape check own.
}

func (za *zeroAllocCheck) checkBinary(n *ast.BinaryExpr) {
	if n.Op.String() != "+" {
		return
	}
	t := za.typeOf(n)
	if t == nil || !isString(t.Underlying()) {
		return
	}
	if tv, ok := za.pass.TypesInfo.Types[n]; ok && tv.Value != nil {
		return // constant-folded at compile time
	}
	za.report(n, "string concatenation allocates")
}

// checkMethodValue flags x.M used as a value (not called): the compiler
// materializes a bound-method closure.
func (za *zeroAllocCheck) checkMethodValue(n *ast.SelectorExpr) {
	if za.calleePos[n] {
		return
	}
	sel, ok := za.pass.TypesInfo.Selections[n]
	if ok && sel.Kind() == types.MethodVal {
		za.report(n, "method value allocates a bound-method closure")
	}
}

func (za *zeroAllocCheck) checkAssign(n *ast.AssignStmt) {
	if len(n.Lhs) != len(n.Rhs) {
		return
	}
	for i, lhs := range n.Lhs {
		lt := za.typeOf(lhs)
		if lt == nil {
			continue
		}
		za.checkIfaceConv(n.Rhs[i], lt)
	}
}

func (za *zeroAllocCheck) checkReturn(n *ast.ReturnStmt) {
	def, ok := za.pass.TypesInfo.Defs[za.fd.Name]
	if !ok {
		return
	}
	results := def.Type().(*types.Signature).Results()
	if len(n.Results) != results.Len() {
		return
	}
	for i, r := range n.Results {
		za.checkIfaceConv(r, results.At(i).Type())
	}
}

// checkIfaceConv reports when expr (a concrete, non-pointer-shaped value)
// is used where typ (an interface) is expected — the implicit boxing that
// heap-allocates the value.
func (za *zeroAllocCheck) checkIfaceConv(expr ast.Expr, typ types.Type) {
	if typ == nil {
		return
	}
	if _, ok := typ.Underlying().(*types.Interface); !ok {
		return
	}
	za.checkIfaceConvTo(expr, expr, typ)
}

func (za *zeroAllocCheck) checkIfaceConvTo(at ast.Node, expr ast.Expr, typ types.Type) {
	if _, ok := typ.Underlying().(*types.Interface); !ok {
		return
	}
	tv, ok := za.pass.TypesInfo.Types[expr]
	if !ok || tv.IsNil() || tv.Type == nil {
		return
	}
	from := tv.Type
	if _, ok := from.Underlying().(*types.Interface); ok {
		return // interface-to-interface: no boxing
	}
	if pointerShaped(from) || zeroSized(from) {
		return // stored directly in the interface word
	}
	za.report(at, "conversion of %s to interface %s allocates", from, typ)
}

func isString(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// pointerShaped reports whether values of t are stored directly in an
// interface word (no convT allocation).
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

func zeroSized(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if !zeroSized(u.Field(i).Type()) {
				return false
			}
		}
		return true
	case *types.Array:
		return u.Len() == 0 || zeroSized(u.Elem())
	}
	return false
}
