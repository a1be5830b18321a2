package unreachable_test

import (
	"testing"

	"typepre/internal/analysis/analysistest"
	"typepre/internal/analysis/passes/unreachable"
)

func TestUnreachable(t *testing.T) {
	analysistest.Run(t, "testdata", unreachable.Analyzer, "a", "rooted", "stalepkg")
}
