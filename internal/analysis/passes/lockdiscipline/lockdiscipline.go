// Package lockdiscipline checks phrlint:guardedby annotations: a struct
// field annotated `// phrlint:guardedby mu` may only be read while some
// acquisition of that mutex (Lock or RLock on the same receiver) appears
// earlier in the enclosing function, and only written after a full Lock.
// Functions annotated `// phrlint:locked mu` declare that their caller
// holds the mutex and are exempt for fields it guards.
//
// The check is lexical, not path-sensitive: it asks "did this function
// acquire the right lock before this access", not "is the lock still held
// on every path reaching it". That catches the real bug class — a new
// method or helper touching guarded maps with no locking at all, the kind
// of miss -race only finds when a test happens to interleave — without
// needing a full may-hold analysis. It can be fooled by access-after-
// Unlock in the same function; the race detector remains the backstop for
// that shape.
package lockdiscipline

import (
	"go/ast"
	"go/token"
	"go/types"

	"typepre/internal/analysis"
)

// Analyzer enforces phrlint:guardedby field annotations.
var Analyzer = &analysis.Analyzer{
	Name: "lockdiscipline",
	Doc:  "flag reads/writes of phrlint:guardedby fields from functions that do not acquire the named mutex (writes require Lock, not RLock)",
	Run:  run,
}

// lockKind distinguishes exclusive from shared acquisition.
type lockKind int

const (
	lockExclusive lockKind = iota // Lock()
	lockShared                    // RLock()
)

// lockEvent is one mutex acquisition found in a function body.
type lockEvent struct {
	base  types.Object // the receiver/variable whose mutex field is locked
	mutex string       // the mutex field name
	kind  lockKind
	pos   token.Pos
}

func run(pass *analysis.Pass) error {
	if len(pass.Program.Annotations.GuardedBy) == 0 {
		return nil
	}
	for _, file := range pass.Files {
		parents := analysis.Parents(file)
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, parents, fd)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, parents map[ast.Node]ast.Node, fd *ast.FuncDecl) {
	locks := collectLocks(pass, fd.Body)
	var heldByCaller string
	if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
		heldByCaller = pass.Program.Annotations.Locked[fn]
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection, ok := pass.TypesInfo.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return true
		}
		field, ok := selection.Obj().(*types.Var)
		if !ok {
			return true
		}
		mutex, guarded := pass.Program.Annotations.GuardedBy[field]
		if !guarded {
			return true
		}
		base := baseObject(pass, sel.X)
		if base == nil {
			// Not a simple variable access (chained call results etc.);
			// out of scope for the lexical check.
			return true
		}
		if heldByCaller == mutex {
			return true
		}
		write := isWrite(parents, sel)
		if satisfied(locks, base, mutex, write, sel.Pos()) {
			return true
		}
		kind := "read of"
		if write {
			kind = "write to"
		}
		if !write || !satisfied(locks, base, mutex, false, sel.Pos()) {
			pass.Reportf(sel.Sel.Pos(),
				"%s %s.%s (phrlint:guardedby %s) without %s.%s held; acquire the lock or mark the enclosing function phrlint:locked %s",
				kind, base.Name(), field.Name(), mutex, base.Name(), mutex, mutex)
		} else {
			pass.Reportf(sel.Sel.Pos(),
				"write to %s.%s (phrlint:guardedby %s) under RLock; writes require %s.%s.Lock()",
				base.Name(), field.Name(), mutex, base.Name(), mutex)
		}
		return true
	})
}

// collectLocks finds every `x.mu.Lock()` / `x.mu.RLock()` call (including
// deferred ones) in the body, keyed by the variable x and mutex field
// name.
func collectLocks(pass *analysis.Pass, body *ast.BlockStmt) []lockEvent {
	var events []lockEvent
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		method, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		var kind lockKind
		switch method.Sel.Name {
		case "Lock":
			kind = lockExclusive
		case "RLock":
			kind = lockShared
		default:
			return true
		}
		mutexSel, ok := ast.Unparen(method.X).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		base := baseObject(pass, mutexSel.X)
		if base == nil {
			return true
		}
		events = append(events, lockEvent{
			base:  base,
			mutex: mutexSel.Sel.Name,
			kind:  kind,
			pos:   call.Pos(),
		})
		return true
	})
	return events
}

// satisfied reports whether some acquisition of base.mutex strong enough
// for the access (writes need Lock) appears before pos.
func satisfied(locks []lockEvent, base types.Object, mutex string, write bool, pos token.Pos) bool {
	for _, ev := range locks {
		if ev.base != base || ev.mutex != mutex || ev.pos >= pos {
			continue
		}
		if write && ev.kind != lockExclusive {
			continue
		}
		return true
	}
	return false
}

// baseObject resolves the variable at the root of a selector chain
// (s in s.byID, s.inner.byID); nil when the base is not a plain variable.
func baseObject(pass *analysis.Pass, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if v, ok := pass.TypesInfo.Uses[x].(*types.Var); ok {
				return v
			}
			return nil
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isWrite classifies a guarded-field access by climbing to the statement
// that uses it: assignment targets, IncDec, address-taking, and delete()
// on the field are writes; everything else is a read.
func isWrite(parents map[ast.Node]ast.Node, sel *ast.SelectorExpr) bool {
	child := ast.Node(sel)
	for p := parents[child]; p != nil; child, p = p, parents[p] {
		switch pp := p.(type) {
		case *ast.AssignStmt:
			for _, lhs := range pp.Lhs {
				if lhs == child {
					return true
				}
			}
			return false
		case *ast.IncDecStmt:
			return true
		case *ast.UnaryExpr:
			if pp.Op == token.AND && pp.X == child {
				return true
			}
			return false
		case *ast.CallExpr:
			if id, ok := ast.Unparen(pp.Fun).(*ast.Ident); ok && id.Name == "delete" &&
				len(pp.Args) > 0 && pp.Args[0] == child {
				return true
			}
			return false
		case *ast.IndexExpr:
			if pp.X != child {
				return false // the access is the index key, a read
			}
		case *ast.SelectorExpr:
			if pp.X != child {
				return false
			}
		case *ast.SliceExpr:
			if pp.Low == child || pp.High == child || pp.Max == child {
				return false
			}
		case *ast.ParenExpr, *ast.StarExpr:
			// keep climbing
		default:
			return false
		}
	}
	return false
}
