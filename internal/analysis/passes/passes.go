// Package passes registers the phrlint analyzer suite: the six
// repo-specific checks that machine-enforce the crypto and service
// invariants documented in docs/lint.md.
package passes

import (
	"typepre/internal/analysis"
	"typepre/internal/analysis/passes/errwrap"
	"typepre/internal/analysis/passes/lockdiscipline"
	"typepre/internal/analysis/passes/secretprint"
	"typepre/internal/analysis/passes/secretrand"
	"typepre/internal/analysis/passes/sentinelcmp"
	"typepre/internal/analysis/passes/unreachable"
)

// All returns the full phrlint suite in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		secretrand.Analyzer,
		sentinelcmp.Analyzer,
		errwrap.Analyzer,
		lockdiscipline.Analyzer,
		secretprint.Analyzer,
		unreachable.Analyzer,
	}
}
