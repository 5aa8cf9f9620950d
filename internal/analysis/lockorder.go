package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// LockOrder enforces the repository's lock discipline with two checks:
//
//  1. missing unlock: a path that returns (or falls off the end of the
//     function) while a mutex acquired in that function is still held and
//     no defer covers it: a forgotten unlock on an early return, a
//     mistake that lives on one path and hangs the next caller.
//
//  2. inconsistent acquisition order: when one function in a package
//     acquires lock B while holding A, and another acquires A while
//     holding B (locks keyed by declaring type + field, e.g.
//     swarm.peerConn.bitM), the pair can deadlock. Both sites are reported.
//
// Copying a lock is go vet's copylocks check, not this one's.
//
// The unlock analysis is a conservative per-block state walk, not a full
// CFG: conditional unlocks without a following return release the lock on
// all paths (under-approximating, so real code's early-return-with-unlock
// idiom never false-positives), and a defer anywhere in the function that
// unlocks a mutex marks it covered for the rest of the walk.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Run:  runLockOrder,
}

func runLockOrder(pass *Pass) error {
	lo := &lockOrderCheck{pass: pass, edges: map[[2]string]token.Pos{}}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				lo.checkUnlocks(fd.Body)
			}
		}
	}
	// Inconsistent order: an edge in both directions across the package.
	for edge, pos := range lo.edges {
		rev := [2]string{edge[1], edge[0]}
		if rpos, ok := lo.edges[rev]; ok && edge[0] < edge[1] {
			pass.Reportf(pos, "inconsistent lock order: %s acquired while holding %s here, but the reverse order is used at %s",
				edge[1], edge[0], pass.Fset.Position(rpos))
		}
	}
	return nil
}

type lockOrderCheck struct {
	pass *Pass
	// edges records "B acquired while holding A" -> first such position.
	edges map[[2]string]token.Pos
}

// lockKey identifies a mutex for held-state tracking: the declaring type
// and field for struct mutexes ("core.cacheShard.mu"), the object position
// for locals. Distinct instances of one field are deliberately conflated —
// precise enough for path checks, and exactly what order checking needs.
func (lo *lockOrderCheck) lockKey(recv ast.Expr) string {
	switch e := recv.(type) {
	case *ast.ParenExpr:
		return lo.lockKey(e.X)
	case *ast.SelectorExpr:
		if s, ok := lo.pass.TypesInfo.Selections[e]; ok && s.Kind() == types.FieldVal {
			if named := namedOf(s.Recv()); named != nil && named.Obj().Pkg() != nil {
				return named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + s.Obj().Name()
			}
		}
		return exprString(e)
	case *ast.Ident:
		if obj := lo.pass.TypesInfo.Uses[e]; obj != nil {
			return fmt.Sprintf("%s@%d", obj.Name(), obj.Pos())
		}
		return e.Name
	}
	return exprString(recv)
}

// lockCall classifies stmt as a mutex Lock/Unlock call, returning the lock
// key and kind ("lock" for Lock/RLock, "unlock" for Unlock/RUnlock).
func (lo *lockOrderCheck) lockCall(call *ast.CallExpr) (key, kind string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	s, ok := lo.pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return "", ""
	}
	m := s.Obj()
	if m.Pkg() == nil || m.Pkg().Path() != "sync" {
		return "", ""
	}
	switch m.Name() {
	case "Lock", "RLock":
		return lo.lockKey(sel.X), "lock"
	case "Unlock", "RUnlock":
		return lo.lockKey(sel.X), "unlock"
	}
	return "", ""
}

type heldState struct {
	held     map[string]token.Pos
	deferred map[string]bool
	// terminated marks that this path ended in a return: its unlocks must
	// not be credited to the fall-through path.
	terminated bool
}

func (h *heldState) clone() *heldState {
	c := &heldState{held: map[string]token.Pos{}, deferred: map[string]bool{}, terminated: h.terminated}
	for k, v := range h.held {
		c.held[k] = v
	}
	for k := range h.deferred {
		c.deferred[k] = true
	}
	return c
}

// checkUnlocks walks the function body tracking held mutexes. Nested
// function literals are analyzed as their own functions (their lock state
// does not leak into the enclosing walk).
func (lo *lockOrderCheck) checkUnlocks(body *ast.BlockStmt) {
	st := &heldState{held: map[string]token.Pos{}, deferred: map[string]bool{}}
	lo.walkStmts(body.List, st)
	for key, pos := range st.held {
		if !st.deferred[key] {
			lo.pass.Reportf(pos, "%s is still held when the function returns (no unlock or defer on this path)", key)
		}
	}
	// Analyze nested closures independently.
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			lo.checkUnlocks(fl.Body)
			return false
		}
		return true
	})
}

// walkStmts advances the held-state machine through one statement list.
func (lo *lockOrderCheck) walkStmts(stmts []ast.Stmt, st *heldState) {
	for _, stmt := range stmts {
		lo.walkStmt(stmt, st)
	}
}

func (lo *lockOrderCheck) walkStmt(stmt ast.Stmt, st *heldState) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			lo.applyCall(call, st)
		}
	case *ast.DeferStmt:
		// Any unlock reachable from the deferred call covers that mutex
		// for the rest of the function (conservatively, including
		// defer func() { ... mu.Unlock() ... }() cleanup blocks).
		ast.Inspect(s.Call, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if key, kind := lo.lockCall(call); kind == "unlock" {
					st.deferred[key] = true
				}
			}
			return true
		})
	case *ast.ReturnStmt:
		for key, pos := range st.held {
			if !st.deferred[key] {
				lo.pass.Reportf(s.Pos(), "return while %s is held (locked at %s, no unlock on this path)",
					key, lo.pass.Fset.Position(pos))
			}
		}
		// The path ends here; what was held has been reported.
		st.held = map[string]token.Pos{}
		st.terminated = true
	case *ast.BlockStmt:
		lo.walkStmts(s.List, st)
	case *ast.IfStmt:
		if s.Init != nil {
			lo.walkStmt(s.Init, st)
		}
		lo.walkBranch(s.Body.List, st)
		if s.Else != nil {
			lo.walkBranch([]ast.Stmt{s.Else}, st)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			lo.walkStmt(s.Init, st)
		}
		lo.walkBranch(s.Body.List, st)
	case *ast.RangeStmt:
		lo.walkBranch(s.Body.List, st)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		var clauses []ast.Stmt
		switch sw := s.(type) {
		case *ast.SwitchStmt:
			clauses = sw.Body.List
		case *ast.TypeSwitchStmt:
			clauses = sw.Body.List
		case *ast.SelectStmt:
			clauses = sw.Body.List
		}
		for _, c := range clauses {
			switch cc := c.(type) {
			case *ast.CaseClause:
				lo.walkBranch(cc.Body, st)
			case *ast.CommClause:
				lo.walkBranch(cc.Body, st)
			}
		}
	case *ast.LabeledStmt:
		lo.walkStmt(s.Stmt, st)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			if call, ok := rhs.(*ast.CallExpr); ok {
				lo.applyCall(call, st)
			}
		}
	}
}

// walkBranch analyzes a conditional branch with a copy of the state. If
// the branch unlocks a held mutex and can fall through (no terminating
// return), the unlock is propagated to the parent state — treating the
// lock as released on all paths under-approximates holding, which is the
// direction that avoids false positives.
func (lo *lockOrderCheck) walkBranch(stmts []ast.Stmt, st *heldState) {
	branch := st.clone()
	branch.terminated = false
	lo.walkStmts(stmts, branch)
	if !branch.terminated {
		// A branch that ends in return does not release locks for the
		// fall-through path (the unlock-and-early-return idiom).
		for key := range st.held {
			if _, still := branch.held[key]; !still {
				delete(st.held, key)
			}
		}
	}
	for key := range branch.deferred {
		st.deferred[key] = true
	}
}

func (lo *lockOrderCheck) applyCall(call *ast.CallExpr, st *heldState) {
	key, kind := lo.lockCall(call)
	if key == "" {
		return
	}
	switch kind {
	case "lock":
		for heldKey := range st.held {
			if heldKey != key {
				edge := [2]string{heldKey, key}
				if _, ok := lo.edges[edge]; !ok {
					lo.edges[edge] = call.Pos()
				}
			}
		}
		st.held[key] = call.Pos()
	case "unlock":
		delete(st.held, key)
	}
}
