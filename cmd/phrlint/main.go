// Command phrlint is the repo's domain-specific static-analysis suite: a
// multichecker over the six passes in internal/analysis/passes that
// machine-check the crypto and service invariants the compiler cannot see,
// and that every production function is reached from a binary or rooted
// with a reason (docs/lint.md). It loads, parses and type-checks the whole
// module, and the modules nested in it, from source once per GOARCH CI
// builds — no network, no third-party modules — runs every pass over the
// named packages, and exits non-zero on any diagnostic.
//
// Usage:
//
//	phrlint [-list] [packages]
//
// Packages default to ./... . Diagnostics print as file:line:col: message
// (pass), one per line, ready for editors and CI annotations. Findings
// are suppressed only by a `//phrlint:ignore pass: reason` directive on
// the flagged line or the line above; a directive without a pass list and
// reason is itself a diagnostic.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"typepre/internal/analysis"
	"typepre/internal/analysis/passes"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run lints one command line (without the program name) and returns the
// exit status: 0 clean, 1 on any diagnostic, 2 when the command line or
// the packages fail to load.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("phrlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the registered passes and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: phrlint [-list] [packages]\n\nPasses:\n")
		for _, a := range passes.All() {
			fmt.Fprintf(stderr, "  %-15s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	suite := passes.All()
	if *list {
		for _, a := range suite {
			fmt.Fprintf(stdout, "%-15s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	prog, targets, err := analysis.Load(".", patterns)
	if err != nil {
		fmt.Fprintln(stderr, "phrlint:", err)
		return 2
	}

	var diags []analysis.Diagnostic
	for _, pkg := range targets {
		d, err := analysis.RunPackage(prog, pkg, suite)
		if err != nil {
			fmt.Fprintln(stderr, "phrlint:", err)
			return 2
		}
		diags = append(diags, d...)
	}

	for _, d := range diags {
		fmt.Fprintf(stdout, "%s\n", d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "phrlint: %d finding(s) across %d package(s)\n", len(diags), len(targets))
		return 1
	}
	return 0
}
