// Package scenario (testdata) models a phr subpackage: no math/rand use
// is sanctioned there, not even a seeded source handed to the generator.
package scenario

import (
	"math/rand"

	"typepre/internal/phr"
)

func deterministicCorpus(seed int64) *phr.Workload {
	return phr.Shuffled(rand.NewSource(seed)) // want `math/rand use outside the InsecureDeterministic workload plumbing`
}

func jitter() int {
	return rand.Intn(10) // want `math/rand use outside the InsecureDeterministic workload plumbing`
}

func ignoredJitter() int {
	//phrlint:ignore secretrand: drill-order jitter only; no key material involved
	return rand.Intn(10)
}
