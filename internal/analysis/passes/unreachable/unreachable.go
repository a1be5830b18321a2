// Package unreachable flags production functions no binary reaches: a
// function only tests call belongs in a _test.go file, and one nothing
// calls is dead. Code that stays without a caller carries a
// `// phrlint:root <reason>` (docs/lint.md lists the reasons that count).
//
// The pass is rapid type analysis (Bacon and Sweeney, OOPSLA 1996) over
// the types.Info.Uses graph of the program's non-test files, in every
// build CI runs (amd64, 386, arm64); a function reached in any build is
// reached. Roots are main and init, package variable initialisers and phrlint:root
// directives; the loader adds the mains of nested modules, such as the
// benchmark harness. A reached body reaches the functions and methods it
// names. A method of a concrete type that reached code converts to an
// interface is reached too: once reached code calls a method of that name
// through an interface, or at once when the interface is declared outside
// the program or the standard library asserts for the method (String,
// Error, MarshalJSON and the like). Instantiating a generic converts each
// type argument to its constraint.
package unreachable

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"typepre/internal/analysis"
)

// Analyzer flags functions and methods no root reaches.
var Analyzer = &analysis.Analyzer{
	Name: "unreachable",
	Doc:  "flag functions no main, init, package variable or phrlint:root reaches in any build; delete them, move them into tests, or root them with a reason",
	Run:  run,
}

// finding is one diagnostic, kept until the package that owns it runs.
type finding struct {
	pos token.Pos
	msg string
}

// memoKey keys the whole-program result in analysis.Program.Memo.
type memoKey struct{}

func run(pass *analysis.Pass) error {
	byPkg := pass.Program.Memo(memoKey{}, func() any { return analyse(pass.Program) }).(map[string][]finding)
	for _, f := range byPkg[pass.Pkg.Path()] {
		pass.Reportf(f.pos, "%s", f.msg)
	}
	return nil
}

// fn is one declared function or method of one build, with what its body
// reaches: edges at once, each dispatch once reached code calls its name
// through an interface. calls are the names it calls through interfaces.
type fn struct {
	decl     *ast.FuncDecl
	obj      *types.Func
	key      token.Position
	edges    []*fn
	dispatch []*fn
	calls    []string
}

// root is one phrlint:root directive of one build and the functions it
// roots: one, or every function of a rooted package.
type root struct {
	key     token.Position
	pos     token.Pos
	pkg     string
	targets []*fn
}

// graph is one build's reference graph. base holds main, init and one
// pseudo-function for the build's package variable initialisers.
type graph struct {
	fns   []*fn
	base  []*fn
	roots []*root
}

func analyse(prog *analysis.Program) map[string][]finding {
	declared := map[token.Position]*fn{}
	reached := map[token.Position]bool{}
	roots := map[token.Position]*root{}
	needed := map[token.Position]bool{}
	for _, b := range prog.Builds {
		g := buildGraph(prog, b)
		all := g.reach(nil)
		for _, f := range g.fns {
			if declared[f.key] == nil {
				declared[f.key] = f
			}
			reached[f.key] = reached[f.key] || all[f]
		}
		for _, r := range g.roots {
			if roots[r.key] == nil {
				roots[r.key] = r
			}
			if needed[r.key] {
				continue
			}
			without := g.reach(r)
			for _, t := range r.targets {
				needed[r.key] = needed[r.key] || !without[t]
			}
		}
	}

	byPkg := map[string][]finding{}
	for key, f := range declared {
		if !reached[key] {
			msg := fmt.Sprintf("%s is unreachable: no main, init, package variable or phrlint:root reaches it in any build", name(f.obj))
			byPkg[f.obj.Pkg().Path()] = append(byPkg[f.obj.Pkg().Path()], finding{f.decl.Name.Pos(), msg})
		}
	}
	for key, r := range roots {
		if needed[key] {
			continue
		}
		msg := "stale phrlint:root: every function of the package is reached without it"
		if len(r.targets) == 1 && r.targets[0].key == key {
			msg = fmt.Sprintf("stale phrlint:root: %s is reached without it", name(r.targets[0].obj))
		}
		byPkg[r.pkg] = append(byPkg[r.pkg], finding{r.pos, msg})
	}
	return byPkg
}

// name renders a function as F, (T).M or (*T).M.
func name(obj *types.Func) string {
	return strings.ReplaceAll(obj.FullName(), obj.Pkg().Path()+".", "")
}

// reach returns the functions reached from the base and every root but
// skip.
func (g *graph) reach(skip *root) map[*fn]bool {
	seen := map[*fn]bool{}
	called := map[string]bool{}
	waiting := map[string][]*fn{}
	var stack []*fn
	push := func(fs ...*fn) {
		for _, f := range fs {
			if !seen[f] {
				seen[f] = true
				stack = append(stack, f)
			}
		}
	}
	push(g.base...)
	for _, r := range g.roots {
		if r != skip {
			push(r.targets...)
		}
	}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		push(f.edges...)
		for _, m := range f.dispatch {
			if name := m.decl.Name.Name; called[name] {
				push(m)
			} else {
				waiting[name] = append(waiting[name], m)
			}
		}
		for _, name := range f.calls {
			if !called[name] {
				called[name] = true
				push(waiting[name]...)
				delete(waiting, name)
			}
		}
	}
	return seen
}

func buildGraph(prog *analysis.Program, b *analysis.Build) *graph {
	g := &graph{}
	byObj := map[*types.Func]*fn{}
	pkgFns := map[*analysis.Package][]*fn{}
	inProgram := map[*types.Package]bool{}
	for _, pkg := range b.Packages {
		inProgram[pkg.Types] = true
		for _, file := range pkg.Syntax {
			for _, decl := range file.Decls {
				if d, ok := decl.(*ast.FuncDecl); ok {
					f := &fn{decl: d, obj: pkg.TypesInfo.Defs[d.Name].(*types.Func), key: prog.Fset.Position(d.Name.Pos())}
					g.fns = append(g.fns, f)
					pkgFns[pkg] = append(pkgFns[pkg], f)
					byObj[f.obj] = f
				}
			}
		}
	}

	vars := &fn{}
	g.base = append(g.base, vars)
	for _, pkg := range b.Packages {
		s := &scanner{info: pkg.TypesInfo, byObj: byObj, inProgram: inProgram}
		for _, f := range pkgFns[pkg] {
			if f.decl.Body != nil {
				s.fn = f
				s.scan(f.decl.Body, f.obj.Type().(*types.Signature))
			}
			name := f.decl.Name.Name
			if f.decl.Recv == nil && (name == "init" || name == "main" && pkg.Types.Name() == "main") {
				g.base = append(g.base, f)
			}
			if prog.Annotations.Roots[f.key] != "" {
				g.roots = append(g.roots, &root{f.key, f.decl.Name.Pos(), pkg.PkgPath, []*fn{f}})
			}
		}
		s.fn = vars
		for _, file := range pkg.Syntax {
			for _, decl := range file.Decls {
				if d, ok := decl.(*ast.GenDecl); ok && d.Tok == token.VAR {
					s.scan(d, nil)
				}
			}
			if key := prog.Fset.Position(file.Package); prog.Annotations.Roots[key] != "" {
				g.roots = append(g.roots, &root{key, file.Package, pkg.PkgPath, pkgFns[pkg]})
			}
		}
	}
	return g
}
