// Package analysis is a small, dependency-free static-analysis framework
// in the spirit of golang.org/x/tools/go/analysis, built on the standard
// library's go/ast and go/types. It exists because the repo's correctness
// rests on invariants the compiler cannot see — secret scalars must come
// from crypto/rand, sentinel errors must survive wrapping, guarded state
// must only be touched under its mutex, key material must never be
// printed — and those invariants deserve a machine check on every push,
// not a reviewer's memory.
//
// The framework loads and type-checks the module once per GOARCH CI builds
// (load.go), harvests the repo's annotation directives (annotations.go),
// runs a set of Analyzers over each package, and filters the resulting diagnostics through the
// ignore directives parsed in this file. cmd/phrlint is the multichecker
// CLI; internal/analysis/analysistest drives the same machinery over
// testdata packages with // want expectations.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one named analysis pass.
type Analyzer struct {
	// Name identifies the pass in diagnostics and in phrlint:ignore
	// directives. It must be a single lower-case word.
	Name string
	// Doc is a one-paragraph description of the invariant the pass
	// enforces.
	Doc string
	// Run applies the pass to one package, reporting findings through
	// pass.Reportf.
	Run func(*Pass) error
}

// A Pass provides one analyzer run with a type-checked package plus the
// framework-wide annotation index.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Program is everything the run loaded. Its Annotations index every
	// phrlint directive of every loaded package (not just the one under
	// analysis), so passes can honor annotations on types and fields
	// defined in dependency packages; whole-program passes analyse it and
	// report on one package.
	Program *Program

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, positioned for editors (file:line:col).
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// ignoreDirective is one parsed "phrlint:ignore pass[,pass]: reason"
// comment. A directive suppresses matching diagnostics reported on its own
// line or on the line directly below it (so it can ride at the end of the
// offending line or on the line above).
type ignoreDirective struct {
	pos    token.Position
	passes []string
	reason string
	used   bool
}

var ignoreRe = regexp.MustCompile(`^\s*phrlint:ignore\b(.*)$`)

// commentText strips the comment markers: both the line form
// `//phrlint:ignore ...` and the inline block form `/*phrlint:ignore ...*/`
// are accepted.
func commentText(c *ast.Comment) string {
	if strings.HasPrefix(c.Text, "//") {
		return c.Text[2:]
	}
	return strings.TrimSuffix(strings.TrimPrefix(c.Text, "/*"), "*/")
}

// parseIgnoreDirectives scans a file's comments for phrlint:ignore
// directives. Malformed directives — a missing pass list, a missing
// reason, or an unknown pass name — are themselves diagnostics: an ignore
// that does not say what it ignores and why is indistinguishable from a
// stale suppression.
func parseIgnoreDirectives(fset *token.FileSet, file *ast.File, known map[string]bool) (dirs []*ignoreDirective, malformed []Diagnostic) {
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			m := ignoreRe.FindStringSubmatch(commentText(c))
			if m == nil {
				continue
			}
			pos := fset.Position(c.Pos())
			rest := strings.TrimSpace(m[1])
			passList, reason, ok := strings.Cut(rest, ":")
			if !ok || strings.TrimSpace(passList) == "" {
				malformed = append(malformed, Diagnostic{
					Analyzer: "phrlint",
					Pos:      pos,
					Message:  `malformed phrlint:ignore directive: want "phrlint:ignore pass[,pass]: reason"`,
				})
				continue
			}
			reason = strings.TrimSpace(reason)
			if reason == "" {
				malformed = append(malformed, Diagnostic{
					Analyzer: "phrlint",
					Pos:      pos,
					Message:  "phrlint:ignore directive must carry a reason after the colon",
				})
				continue
			}
			var passes []string
			bad := false
			for _, p := range strings.Split(passList, ",") {
				p = strings.TrimSpace(p)
				if !known[p] {
					malformed = append(malformed, Diagnostic{
						Analyzer: "phrlint",
						Pos:      pos,
						Message:  fmt.Sprintf("phrlint:ignore names unknown pass %q", p),
					})
					bad = true
					break
				}
				passes = append(passes, p)
			}
			if bad {
				continue
			}
			dirs = append(dirs, &ignoreDirective{pos: pos, passes: passes, reason: reason})
		}
	}
	return dirs, malformed
}

func (d *ignoreDirective) matches(diag Diagnostic) bool {
	if diag.Pos.Filename != d.pos.Filename {
		return false
	}
	if diag.Pos.Line != d.pos.Line && diag.Pos.Line != d.pos.Line+1 {
		return false
	}
	for _, p := range d.passes {
		if p == diag.Analyzer {
			return true
		}
	}
	return false
}

// RunPackage applies every analyzer to pkg, one of prog's host-build
// packages, and returns the surviving diagnostics: findings suppressed by
// a well-formed phrlint:ignore directive are dropped, malformed directives
// in pkg's files and directives that suppress nothing are reported, and
// the result is sorted by position.
func RunPackage(prog *Program, pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var dirs []*ignoreDirective
	var diags []Diagnostic
	for _, d := range prog.Malformed {
		if filepath.Dir(d.Pos.Filename) == pkg.Dir {
			diags = append(diags, d)
		}
	}
	for _, f := range pkg.Syntax {
		d, malformed := parseIgnoreDirectives(pkg.Fset, f, known)
		dirs = append(dirs, d...)
		diags = append(diags, malformed...)
	}

	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Syntax,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			Program:   prog,
			report: func(d Diagnostic) {
				for _, dir := range dirs {
					if dir.matches(d) {
						dir.used = true
						return
					}
				}
				diags = append(diags, d)
			},
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
		}
	}

	// An ignore that suppresses nothing is stale: either the finding was
	// fixed (delete the directive) or the directive drifted off its line.
	for _, dir := range dirs {
		if !dir.used {
			diags = append(diags, Diagnostic{
				Analyzer: "phrlint",
				Pos:      dir.pos,
				Message:  fmt.Sprintf("phrlint:ignore suppresses no %s diagnostic; delete the stale directive", strings.Join(dir.passes, ",")),
			})
		}
	}

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}
