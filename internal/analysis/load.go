package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
)

// A Package is one loaded, type-checked package: the unit a Pass runs
// over.
type Package struct {
	PkgPath   string
	Dir       string
	Fset      *token.FileSet
	Syntax    []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// archs are the GOARCHes CI builds. Whole-program passes see the union of
// their builds, so a body only another GOARCH compiles (a portable
// fallback for an assembly kernel) counts as code a binary reaches.
var archs = []string{"amd64", "386", "arm64"}

// A Build is the loaded code type-checked for one GOARCH.
type Build struct {
	Packages []*Package
}

// A Program is everything one run loaded: one Build per GOARCH, all
// positioned in one FileSet, so a position means the same source in every
// build, plus the annotations harvested from all of them.
type Program struct {
	Fset *token.FileSet
	// Builds[0] is the host build, the one the per-package passes run
	// over.
	Builds      []*Build
	Annotations *Annotations
	// Malformed are the directives the harvest could not bind; RunPackage
	// reports those in its package.
	Malformed []Diagnostic

	mu   sync.Mutex
	memo map[any]any
}

// Memo returns what compute returns for key, calling it once per program:
// a whole-program pass runs per package but analyses the program once.
func (p *Program) Memo(key any, compute func() any) any {
	p.mu.Lock()
	defer p.mu.Unlock()
	v, ok := p.memo[key]
	if !ok {
		v = compute()
		p.memo[key] = v
	}
	return v
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	Error      *struct{ Err string }
}

// goList runs the go command with env added to its environment and
// decodes its JSON package stream.
func goList(dir string, env []string, args ...string) ([]*listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-json=ImportPath,Dir,GoFiles,Standard,Error"}, args...)...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), env...)
	var out, errBuf bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errBuf
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %w\n%s", args, err, errBuf.Bytes())
	}
	dec := json.NewDecoder(&out)
	var pkgs []*listedPackage
	for dec.More() {
		p := new(listedPackage)
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("go list %v: decoding output: %w", args, err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// moduleImporter resolves imports while type-checking module packages from
// source: standard-library packages come from the toolchain's export data
// (offline — the gc importer asks the go command for the build cache
// location), and intra-module packages come from the already-type-checked
// map, which dependency-order loading guarantees is populated.
type moduleImporter struct {
	std    types.Importer
	byPath map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.byPath[path]; ok {
		return p, nil
	}
	return m.std.Import(path)
}

// Load loads the whole module containing dir, together with every module
// nested inside it, and returns the program and the packages matching
// patterns in its host build. Only non-test Go files are loaded: the
// invariants phrlint checks are production invariants, and tests
// legitimately do things like seed deterministic randomness.
func Load(dir string, patterns []string) (prog *Program, targets []*Package, err error) {
	listed, err := goList(dir, nil, patterns...)
	if err != nil {
		return nil, nil, err
	}
	dirs, err := moduleDirs(dir)
	if err != nil {
		return nil, nil, err
	}
	if prog, err = LoadProgram(nil, []string{"./..."}, dirs...); err != nil {
		return nil, nil, err
	}
	for _, lp := range listed {
		targets = append(targets, prog.Builds[0].Package(lp.ImportPath))
	}
	return prog, targets, nil
}

// LoadProgram type-checks, once per GOARCH in archs with the host's first,
// every package that `go list -deps` lists for patterns in each of dirs,
// dependencies first and each package once, with env added to the go
// command's environment. The standard library's export data is the host
// toolchain's in every build: its API does not vary by GOARCH in anything
// the loaded code uses, and the type checker's sizes do follow each
// build's GOARCH.
func LoadProgram(env, patterns []string, dirs ...string) (*Program, error) {
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", nil)
	host := build.Default.GOARCH
	var builds []*Build
	var all []*Package
	for _, goarch := range append([]string{host}, archs...) {
		if goarch == host && len(builds) > 0 {
			continue
		}
		b := &Build{}
		imp := &moduleImporter{std: std, byPath: map[string]*types.Package{}}
		// -deps lists dependencies before dependents, and dirs puts the
		// module before the modules nested in it that import it, so one
		// forward sweep type-checks every import before its importer.
		for _, dir := range dirs {
			listed, err := goList(dir, append(env, "GOARCH="+goarch), append([]string{"-deps"}, patterns...)...)
			if err != nil {
				return nil, err
			}
			for _, lp := range listed {
				if lp.Standard || imp.byPath[lp.ImportPath] != nil {
					continue
				}
				pkg, err := typeCheck(fset, lp.ImportPath, lp.Dir, lp.GoFiles, imp, goarch)
				if err != nil {
					return nil, err
				}
				imp.byPath[lp.ImportPath] = pkg.Types
				b.Packages = append(b.Packages, pkg)
				all = append(all, pkg)
			}
		}
		builds = append(builds, b)
	}
	ann, malformed := HarvestAnnotations(all)
	return &Program{Fset: fset, Builds: builds, Annotations: ann, Malformed: malformed, memo: map[any]any{}}, nil
}

// Package returns the build's package with the import path, or nil.
func (b *Build) Package(path string) *Package {
	for _, p := range b.Packages {
		if p.PkgPath == path {
			return p
		}
	}
	return nil
}

// moduleDirs returns the root directory of the module containing dir,
// then every directory below it, outside testdata and hidden directories,
// that holds a nested module. A nested module (a benchmark harness, say)
// builds its own binaries from this module's packages, so what they call
// counts as reached.
func moduleDirs(dir string) ([]string, error) {
	cmd := exec.Command("go", "list", "-m", "-f", "{{.Dir}}")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -m: %w", err)
	}
	root := strings.TrimSpace(string(out))
	dirs := []string{root}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case d.Name() == "go.mod" && filepath.Dir(path) != root:
			dirs = append(dirs, filepath.Dir(path))
		}
		return nil
	})
	return dirs, err
}

// typeCheck parses the named files in dir and type-checks them as one
// package, resolving imports through imp; goarch sets the type checker's
// sizes.
func typeCheck(fset *token.FileSet, pkgPath, dir string, files []string, imp types.Importer, goarch string) (*Package, error) {
	var syntax []*ast.File
	for _, name := range files {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		syntax = append(syntax, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Instances:  map[*ast.Ident]types.Instance{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", goarch)}
	tpkg, err := conf.Check(pkgPath, fset, syntax, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", pkgPath, err)
	}
	return &Package{
		PkgPath:   pkgPath,
		Dir:       dir,
		Fset:      fset,
		Syntax:    syntax,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}
