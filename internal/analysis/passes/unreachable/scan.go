package unreachable

import (
	"go/ast"
	"go/token"
	"go/types"
)

// stdDispatched are the methods the standard library calls on a value it
// holds as an interface after asserting a narrower one: fmt's Stringer,
// error and Formatter, and encoding's marshalers.
var stdDispatched = map[string]bool{
	"Error": true, "String": true, "GoString": true, "Format": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true,
	"UnmarshalText": true, "MarshalBinary": true, "UnmarshalBinary": true,
}

// scanner collects into fn what the bodies it scans reach.
type scanner struct {
	info      *types.Info
	byObj     map[*types.Func]*fn
	inProgram map[*types.Package]bool
	fn        *fn
}

// scan walks n; sig is the signature its return statements return from.
func (s *scanner) scan(n ast.Node, sig *types.Signature) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			s.scan(n.Body, s.info.TypeOf(n).(*types.Signature))
			return false
		case *ast.Ident:
			s.ident(n)
		case *ast.CallExpr:
			s.call(n)
		case *ast.AssignStmt:
			for i := range n.Rhs {
				if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
					s.convert(n.Rhs[i], s.info.TypeOf(n.Lhs[i]))
				}
			}
		case *ast.ValueSpec:
			for _, v := range n.Values {
				if n.Type != nil {
					s.convert(v, s.info.TypeOf(n.Type))
				}
			}
		case *ast.ReturnStmt:
			for i, r := range n.Results {
				if sig != nil && sig.Results().Len() == len(n.Results) {
					s.convert(r, sig.Results().At(i).Type())
				}
			}
		case *ast.CompositeLit:
			s.compositeLit(n)
		}
		return true
	})
}

// ident adds the function or method id names, or the name it calls
// through an interface, and converts the type arguments of a generic
// instantiation to their constraints.
func (s *scanner) ident(id *ast.Ident) {
	var tparams *types.TypeParamList
	switch obj := s.info.Uses[id].(type) {
	case *types.Func:
		if recv := obj.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			s.fn.calls = append(s.fn.calls, obj.Name())
		} else if f := s.byObj[obj.Origin()]; f != nil {
			s.fn.edges = append(s.fn.edges, f)
		}
		tparams = obj.Origin().Type().(*types.Signature).TypeParams()
	case *types.TypeName:
		if named, ok := obj.Type().(*types.Named); ok {
			tparams = named.TypeParams()
		}
	}
	if inst, ok := s.info.Instances[id]; ok {
		for i := range inst.TypeArgs.Len() {
			s.conversion(inst.TypeArgs.At(i), tparams.At(i).Constraint())
		}
	}
}

// call converts each argument to its parameter's type, or the operand of
// a conversion to the converted-to type.
func (s *scanner) call(call *ast.CallExpr) {
	tv := s.info.Types[call.Fun]
	if tv.IsType() && len(call.Args) == 1 {
		s.convert(call.Args[0], tv.Type)
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok || tv.IsBuiltin() {
		return
	}
	params := sig.Params()
	for i, a := range call.Args {
		if sig.Variadic() && i >= params.Len()-1 && !call.Ellipsis.IsValid() {
			s.convert(a, params.At(params.Len()-1).Type().(*types.Slice).Elem())
		} else if i < params.Len() {
			s.convert(a, params.At(i).Type())
		}
	}
}

// compositeLit converts each element to its field, element or map value
// type.
func (s *scanner) compositeLit(lit *ast.CompositeLit) {
	t := s.info.TypeOf(lit).Underlying()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem().Underlying()
	}
	for i, e := range lit.Elts {
		kv, isKV := e.(*ast.KeyValueExpr)
		if isKV {
			e = kv.Value
		}
		switch u := t.(type) {
		case *types.Struct:
			if !isKV {
				s.convert(e, u.Field(i).Type())
			} else if v, ok := s.info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
				s.convert(e, v.Type())
			}
		case *types.Slice:
			s.convert(e, u.Elem())
		case *types.Array:
			s.convert(e, u.Elem())
		case *types.Map:
			s.convert(e, u.Elem())
		}
	}
}

// convert records that the value of e is stored where a to is expected.
func (s *scanner) convert(e ast.Expr, to types.Type) {
	if from := s.info.TypeOf(e); from != nil && to != nil {
		s.conversion(from, to)
	}
}

// conversion records the methods of from that a conversion to the
// interface to makes callable: at once those the standard library asserts
// for and those to has when code outside the program declares them, the
// rest once their name is called through an interface.
func (s *scanner) conversion(from, to types.Type) {
	iface, ok := to.Underlying().(*types.Interface)
	if _, isParam := to.(*types.TypeParam); !ok || isParam || types.IsInterface(from) {
		return
	}
	mset := types.NewMethodSet(from)
	for i := range mset.Len() {
		m := mset.At(i).Obj().(*types.Func)
		f := s.byObj[m.Origin()]
		switch {
		case f == nil:
		case stdDispatched[m.Name()] || s.external(iface, m.Name()):
			s.fn.edges = append(s.fn.edges, f)
		default:
			s.fn.dispatch = append(s.fn.dispatch, f)
		}
	}
}

// external reports whether iface has a method name declared outside the
// program, which code outside it may call.
func (s *scanner) external(iface *types.Interface, name string) bool {
	for i := range iface.NumMethods() {
		if m := iface.Method(i); m.Name() == name {
			return !s.inProgram[m.Pkg()]
		}
	}
	return false
}
