// Package secretrand enforces the repo's randomness policy: secret
// scalars, KEM randomizers and GCM nonces must come from crypto/rand.
// math/rand (and math/rand/v2) is banned outright in the cryptographic
// packages (internal/bn254, internal/ibe, internal/core, internal/hybrid)
// and allowed in the internal/phr tree only as the sanctioned
// InsecureDeterministic workload plumbing: the deterministic rand.Source
// that phr.GenerateWorkload threads through corpus generation so the
// benchmark and the tests can regenerate byte-identical corpora. Everything else is a diagnostic — a math/rand value that leaks
// into key generation is the paper's security reduction voided in one
// line.
package secretrand

import (
	"go/ast"
	"go/types"
	"strings"

	"typepre/internal/analysis"
)

// Analyzer flags math/rand in crypto packages and unsanctioned math/rand
// in the internal/phr tree.
var Analyzer = &analysis.Analyzer{
	Name: "secretrand",
	Doc:  "flag math/rand in crypto packages and outside the InsecureDeterministic workload plumbing; secret randomness must come from crypto/rand",
	Run:  run,
}

// cryptoPkgs are the packages where no use of math/rand is ever
// legitimate: every random value they draw is (or directly masks) key
// material. Matching is on the path segment directly under internal/, so
// each entry covers its whole subtree — internal/bn254/fp (the
// Montgomery-limb field core) is covered by the bn254 entry.
var cryptoPkgs = []string{"bn254", "ibe", "core", "hybrid"}

// plumbingFunc is the function, in the phr package itself, that *is* the
// InsecureDeterministic plumbing — the only place the phr tree may use
// math/rand.
const plumbingFunc = "GenerateWorkload"

func run(pass *analysis.Pass) error {
	crypto, phrTree := classify(pass.Pkg.Path())
	if !crypto && !phrTree {
		return nil
	}
	for _, file := range pass.Files {
		checkFile(pass, file, crypto)
	}
	return nil
}

// classify buckets a package path by its position under internal/: the
// crypto packages (and their subpackages) ban math/rand outright; the
// internal/phr tree gets the plumbing exception.
func classify(path string) (crypto, phrTree bool) {
	segs := strings.Split(path, "/")
	for i := 0; i+1 < len(segs); i++ {
		if segs[i] != "internal" {
			continue
		}
		next := segs[i+1]
		if next == "phr" {
			return false, true
		}
		for _, c := range cryptoPkgs {
			if next == c {
				return true, false
			}
		}
	}
	return false, false
}

func checkFile(pass *analysis.Pass, file *ast.File, crypto bool) {
	randNames := map[*types.PkgName]bool{}
	for _, imp := range file.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		if path != "math/rand" && path != "math/rand/v2" {
			continue
		}
		if crypto {
			pass.Reportf(imp.Pos(), "%s imported in cryptographic package %s: secret scalars must come from crypto/rand", path, pass.Pkg.Path())
			continue
		}
		if imp.Name != nil && (imp.Name.Name == "_" || imp.Name.Name == ".") {
			pass.Reportf(imp.Pos(), "%s %s-imported in the internal/phr tree; import it normally so uses are auditable", path, imp.Name.Name)
			continue
		}
		if obj, ok := pass.TypesInfo.Implicits[imp].(*types.PkgName); ok {
			randNames[obj] = true
		} else if imp.Name != nil {
			if obj, ok := pass.TypesInfo.Defs[imp.Name].(*types.PkgName); ok {
				randNames[obj] = true
			}
		}
	}
	if crypto || len(randNames) == 0 {
		return
	}

	parents := analysis.Parents(file)
	ast.Inspect(file, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
		if !ok || !randNames[pn] {
			return true
		}
		if sanctioned(pass, parents, id) {
			return true
		}
		pass.Reportf(id.Pos(),
			"math/rand use outside the InsecureDeterministic workload plumbing; secret randomness must come from crypto/rand")
		return true
	})
}

// sanctioned reports whether a math/rand reference is part of the
// InsecureDeterministic plumbing: lexically inside phr.GenerateWorkload,
// whose whole job is threading a deterministic source.
func sanctioned(pass *analysis.Pass, parents map[ast.Node]ast.Node, id *ast.Ident) bool {
	fd := analysis.EnclosingFuncDecl(parents, id)
	return fd != nil && fd.Name.Name == plumbingFunc && fd.Recv == nil && isPhrPkg(pass.Pkg.Path())
}

func isPhrPkg(path string) bool {
	return path == "internal/phr" || strings.HasSuffix(path, "/internal/phr")
}
