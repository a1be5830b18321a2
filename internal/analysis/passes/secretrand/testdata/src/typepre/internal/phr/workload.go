// Package phr (testdata) models the workload plumbing: math/rand is legal
// only inside GenerateWorkload, the InsecureDeterministic corpus
// generator.
package phr

import (
	"math/rand"
)

// WorkloadConfig mirrors the production InsecureDeterministic switch.
type WorkloadConfig struct {
	Seed                  int64
	InsecureDeterministic bool
}

// Workload is a generated corpus.
type Workload struct {
	IDs []int
}

// GenerateWorkload is the plumbing itself, sanctioned wholesale.
func GenerateWorkload(cfg WorkloadConfig) (*Workload, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	return &Workload{IDs: []int{rng.Intn(100)}}, nil
}

// Shuffled is NOT plumbing: a function that takes a math/rand source
// outside GenerateWorkload is itself a use to flag.
func Shuffled(src rand.Source) *Workload { // want `math/rand use outside the InsecureDeterministic workload plumbing`
	w := &Workload{IDs: []int{1, 2, 3}}
	Shuffle(w)
	return w
}

// Shuffle is NOT plumbing: a direct use of math/rand outside the
// sanctioned function.
func Shuffle(w *Workload) {
	rand.Shuffle(len(w.IDs), func(i, j int) { // want `math/rand use outside the InsecureDeterministic workload plumbing`
		w.IDs[i], w.IDs[j] = w.IDs[j], w.IDs[i]
	})
}
