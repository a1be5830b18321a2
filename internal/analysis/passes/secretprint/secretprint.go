// Package secretprint flags key material flowing into formatting and
// logging. Types annotated `// phrlint:secret` (the KGC master scalar,
// extracted IBE private keys, the delegator wrapper, recovered type keys,
// derived GCM keys) must never reach fmt/log output — a %v of a secret-key
// struct prints its *big.Int scalars in full, and an error string built
// from one ships the scalar to whatever logs the error. The check is
// structural: a struct containing a secret field (at any nesting depth,
// through pointers, slices, arrays and maps) is itself secret.
package secretprint

import (
	"go/ast"
	"go/types"

	"typepre/internal/analysis"
)

// Analyzer flags phrlint:secret values passed to print-like functions.
var Analyzer = &analysis.Analyzer{
	Name: "secretprint",
	Doc:  "flag formatting/logging of phrlint:secret key-material types; key scalars must never reach fmt/log output or error strings",
	Run:  run,
}

// printFuncs are the formatting sinks. Matching is by types.Func.FullName,
// so both package functions ("fmt.Printf") and methods
// ("(*log.Logger).Printf") are covered.
var printFuncs = map[string]bool{
	"fmt.Print": true, "fmt.Printf": true, "fmt.Println": true,
	"fmt.Sprint": true, "fmt.Sprintf": true, "fmt.Sprintln": true,
	"fmt.Fprint": true, "fmt.Fprintf": true, "fmt.Fprintln": true,
	"fmt.Errorf": true, "fmt.Appendf": true, "fmt.Append": true, "fmt.Appendln": true,
	"log.Print": true, "log.Printf": true, "log.Println": true,
	"log.Fatal": true, "log.Fatalf": true, "log.Fatalln": true,
	"log.Panic": true, "log.Panicf": true, "log.Panicln": true, "log.Output": true,
	"(*log.Logger).Print": true, "(*log.Logger).Printf": true, "(*log.Logger).Println": true,
	"(*log.Logger).Fatal": true, "(*log.Logger).Fatalf": true, "(*log.Logger).Fatalln": true,
	"(*log.Logger).Panic": true, "(*log.Logger).Panicf": true, "(*log.Logger).Panicln": true,
	"(*log.Logger).Output": true, "log/slog.Debug": true, "log/slog.Info": true,
	"log/slog.Warn": true, "log/slog.Error": true,
	"(*log/slog.Logger).Debug": true, "(*log/slog.Logger).Info": true,
	"(*log/slog.Logger).Warn": true, "(*log/slog.Logger).Error": true,
}

func run(pass *analysis.Pass) error {
	if len(pass.Annotations.Secret) == 0 {
		return nil
	}
	memo := map[types.Type]bool{}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || !printFuncs[fn.FullName()] {
				return true
			}
			for _, arg := range call.Args {
				t := pass.TypesInfo.TypeOf(arg)
				if t == nil || !isSecret(pass, memo, t, nil) {
					continue
				}
				pass.Reportf(arg.Pos(),
					"key material of type %s passed to %s; secrets must never be formatted or logged", t, fn.FullName())
			}
			return true
		})
	}
	return nil
}

// isSecret reports whether a value of type t contains phrlint:secret key
// material, walking through pointers, containers and struct fields.
// `seen` breaks recursive-type cycles (a revisited in-progress type is
// conservatively non-secret; the annotation on the cycle head still
// triggers).
func isSecret(pass *analysis.Pass, memo map[types.Type]bool, t types.Type, seen map[types.Type]bool) bool {
	if v, ok := memo[t]; ok {
		return v
	}
	if seen[t] {
		return false
	}
	if seen == nil {
		seen = map[types.Type]bool{}
	}
	seen[t] = true

	secret := false
	switch tt := t.(type) {
	case *types.Named:
		if pass.Annotations.Secret[tt.Obj()] {
			secret = true
		} else {
			secret = isSecret(pass, memo, tt.Underlying(), seen)
		}
	case *types.Alias:
		secret = isSecret(pass, memo, types.Unalias(tt), seen)
	case *types.Pointer:
		secret = isSecret(pass, memo, tt.Elem(), seen)
	case *types.Slice:
		secret = isSecret(pass, memo, tt.Elem(), seen)
	case *types.Array:
		secret = isSecret(pass, memo, tt.Elem(), seen)
	case *types.Map:
		secret = isSecret(pass, memo, tt.Key(), seen) || isSecret(pass, memo, tt.Elem(), seen)
	case *types.Chan:
		secret = isSecret(pass, memo, tt.Elem(), seen)
	case *types.Struct:
		for i := 0; i < tt.NumFields(); i++ {
			if isSecret(pass, memo, tt.Field(i).Type(), seen) {
				secret = true
				break
			}
		}
	}
	memo[t] = secret
	return secret
}
