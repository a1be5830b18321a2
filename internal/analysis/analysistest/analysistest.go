// Package analysistest drives phrlint analyzers over testdata packages
// with inline `// want "regexp"` expectations, mirroring the x/tools
// package of the same name on the standard library alone.
//
// Layout: testdata/src/<importpath>/*.go forms one package per directory.
// Testdata packages may import each other by those paths (testdata is the
// GOPATH) and anything from the standard library. Build constraints pick
// the files of each GOARCH build, and _test.go files are not loaded, so a
// testdata package can show what only a test calls. Every loaded package —
// including dependencies — feeds directive harvesting, so a testdata
// package can annotate types and fields exactly like production code.
//
// Expectations: a comment `// want "re1" "re2"` on a line asserts that
// each regexp matches the message of a distinct diagnostic reported on
// that line; any diagnostic not matched by an expectation, and any
// expectation not matched by a diagnostic, fails the test.
//
// phrlint:root the test harness every phrlint pass's tests import
package analysistest

import (
	"path/filepath"
	"regexp"
	"strconv"
	"testing"

	"typepre/internal/analysis"
)

// Run loads each named testdata package for amd64, 386 and arm64, as the
// go command does in GOPATH mode with testdata as GOPATH, applies the
// analyzer to the host build (with ignore-directive filtering, so
// directive behavior is testable), and checks diagnostics against // want
// comments.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	gopath, err := filepath.Abs(testdata)
	if err != nil {
		t.Fatal(err)
	}
	env := []string{"GO111MODULE=off", "GOPATH=" + gopath, "GOFLAGS="}
	prog, err := analysis.LoadProgram(env, pkgPaths, gopath)
	if err != nil {
		t.Fatalf("loading testdata packages %v: %v", pkgPaths, err)
	}
	for _, path := range pkgPaths {
		pkg := prog.Builds[0].Package(path)
		diags, err := analysis.RunPackage(prog, pkg, []*analysis.Analyzer{a})
		if err != nil {
			t.Fatalf("running %s on %s: %v", a.Name, pkg.PkgPath, err)
		}
		check(t, pkg, diags)
	}
}

// expectation is one parsed want clause.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	hit  bool
}

// want clauses take Go string syntax, double- or back-quoted; each quoted
// string is a regexp matched against one diagnostic message.
var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)
var quotedRe = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

func parseWants(t *testing.T, pkg *analysis.Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, file := range pkg.Syntax {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, q := range quotedRe.FindAllString(m[1], -1) {
					raw, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: bad want string %s: %v", pos, q, err)
					}
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, raw, err)
					}
					wants = append(wants, &expectation{
						file: pos.Filename, line: pos.Line, re: re, raw: raw,
					})
				}
			}
		}
	}
	return wants
}

func check(t *testing.T, pkg *analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	wants := parseWants(t, pkg)
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", d.Pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.raw)
		}
	}
}
