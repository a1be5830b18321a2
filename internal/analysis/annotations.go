package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// Annotations is the framework-wide index of phrlint source directives,
// harvested from every package loaded in a run so that passes can honor
// annotations on objects defined in dependency packages:
//
//	// phrlint:secret
//	type KGC struct { ... }          // secretprint: never format/log this
//
//	type memBackend struct {
//	    mu   sync.RWMutex
//	    byID map[string]*Record // phrlint:guardedby mu
//	}
//
//	// phrlint:locked mu — caller must hold mu.
//	func (s *memBackend) collect(ids []string) []*Record { ... }
//
//	// phrlint:root pending Restart without amnesia
//	func (p *Patient) RotateTypeKey(...) { ... } // unreachable: a root
type Annotations struct {
	// Secret marks type names whose values are key material: formatting or
	// logging them (directly or embedded in a struct) is a secretprint
	// diagnostic.
	Secret map[*types.TypeName]bool
	// GuardedBy maps a struct field to the name of the sibling mutex field
	// that must be held to touch it.
	GuardedBy map[*types.Var]string
	// Locked maps a function to the mutex name its callers must hold;
	// accesses to fields guarded by that mutex are sanctioned inside it.
	Locked map[*types.Func]string
	// Roots maps the position of a rooted declaration to the reason given
	// by its root directive: a function's or method's name, or the package
	// clause of a rooted package. The unreachable pass treats it
	// as reached. Positions, unlike objects, are the same in every build.
	Roots map[token.Position]string
}

var directiveRe = regexp.MustCompile(`^//\s*phrlint:(secret|guardedby|locked|root)\b[ \t]*(.*)$`)

// identRe is the mutex name at the start of a guardedby or locked
// argument; what follows it is commentary.
var identRe = regexp.MustCompile(`^[A-Za-z0-9_]*`)

// directiveIn scans the comment groups for a phrlint:secret/guardedby/
// locked/root directive and returns its kind and argument: the mutex name
// for guardedby and locked, the reason for root.
func directiveIn(groups ...*ast.CommentGroup) (kind, arg string, ok bool) {
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if m := directiveRe.FindStringSubmatch(c.Text); m != nil {
				if m[1] == "root" {
					return m[1], strings.TrimSpace(m[2]), true
				}
				return m[1], identRe.FindString(m[2]), true
			}
		}
	}
	return "", "", false
}

// HarvestAnnotations builds the directive index over every loaded package.
// Malformed directives (guardedby/locked without a mutex name, guardedby
// naming a mutex the struct does not have, root without a reason) are
// returned as diagnostics — an annotation that silently binds to nothing
// would un-enforce the very invariant it documents. A file loaded in
// several builds is reported once.
func HarvestAnnotations(pkgs []*Package) (*Annotations, []Diagnostic) {
	ann := &Annotations{
		Secret:    map[*types.TypeName]bool{},
		GuardedBy: map[*types.Var]string{},
		Locked:    map[*types.Func]string{},
		Roots:     map[token.Position]string{},
	}
	var bad []Diagnostic
	reported := map[token.Position]bool{}
	report := func(pkg *Package, node ast.Node, format string, args ...any) {
		pos := pkg.Fset.Position(node.Pos())
		if reported[pos] {
			return
		}
		reported[pos] = true
		bad = append(bad, Diagnostic{
			Analyzer: "phrlint",
			Pos:      pos,
			Message:  fmt.Sprintf(format, args...),
		})
	}

	for _, pkg := range pkgs {
		for _, file := range pkg.Syntax {
			harvestPackageRoot(pkg, file, ann, report)
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					kind, arg, ok := directiveIn(d.Doc)
					if !ok {
						continue
					}
					switch {
					case kind != "locked" && kind != "root":
						report(pkg, d, "phrlint:%s directive is not valid on a function; want phrlint:locked or phrlint:root", kind)
					case arg == "" && kind == "locked":
						report(pkg, d, "phrlint:locked directive must name the mutex the caller holds")
					case arg == "":
						report(pkg, d, "phrlint:root directive must carry a reason")
					case kind == "root":
						ann.Roots[pkg.Fset.Position(d.Name.Pos())] = arg
					default:
						if fn, ok := pkg.TypesInfo.Defs[d.Name].(*types.Func); ok {
							ann.Locked[fn] = arg
						}
					}
				case *ast.GenDecl:
					harvestGenDecl(pkg, d, ann, report)
				}
			}
		}
	}
	return ann, bad
}

func harvestGenDecl(pkg *Package, d *ast.GenDecl, ann *Annotations, report func(*Package, ast.Node, string, ...any)) {
	for _, spec := range d.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		// A secret directive may sit on the type's doc comment — which is
		// the GenDecl doc for the common single-spec form.
		if kind, _, ok := directiveIn(ts.Doc, ts.Comment, d.Doc); ok {
			if kind != "secret" {
				report(pkg, ts, "phrlint:%s directive is not valid on a type declaration; want phrlint:secret", kind)
			} else if tn, ok := pkg.TypesInfo.Defs[ts.Name].(*types.TypeName); ok {
				ann.Secret[tn] = true
			}
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			continue
		}
		for _, field := range st.Fields.List {
			kind, arg, ok := directiveIn(field.Doc, field.Comment)
			if !ok {
				continue
			}
			if kind != "guardedby" {
				report(pkg, field, "phrlint:%s directive is not valid on a struct field; want phrlint:guardedby", kind)
				continue
			}
			if arg == "" {
				report(pkg, field, "phrlint:guardedby directive must name the guarding mutex field")
				continue
			}
			if !structHasMutexField(st, arg) {
				report(pkg, field, "phrlint:guardedby names %q, which is not a sibling field of the struct", arg)
				continue
			}
			for _, name := range field.Names {
				if v, ok := pkg.TypesInfo.Defs[name].(*types.Var); ok {
					ann.GuardedBy[v] = arg
				}
			}
		}
	}
}

// harvestPackageRoot records a phrlint:root directive in the package
// clause's doc comment, which roots the whole package.
func harvestPackageRoot(pkg *Package, file *ast.File, ann *Annotations, report func(*Package, ast.Node, string, ...any)) {
	switch kind, reason, ok := directiveIn(file.Doc); {
	case !ok:
	case kind != "root":
		report(pkg, file.Doc, "phrlint:%s directive is not valid on a package clause; want phrlint:root", kind)
	case reason == "":
		report(pkg, file.Doc, "phrlint:root directive must carry a reason")
	default:
		ann.Roots[pkg.Fset.Position(file.Package)] = reason
	}
}

// structHasMutexField reports whether the struct declares a field with the
// given name (the mutex the guardedby directive points at).
func structHasMutexField(st *ast.StructType, name string) bool {
	for _, f := range st.Fields.List {
		for _, n := range f.Names {
			if n.Name == name {
				return true
			}
		}
	}
	return false
}
