package bn254

import (
	"math/rand"
	"testing"
	_ "unsafe" // for go:linkname

	"typepre/internal/bn254/fp"
)

// fpUseADX is package fp's CPUID flag, which the fp2Mul and fp2Square
// entries of fp2_amd64.s test.
//
//go:linkname fpUseADX typepre/internal/bn254/fp.useADX
var fpUseADX bool

// TestFp2KernelsWithoutADX runs every kernel with the flag cleared, as on
// an amd64 CPU without ADX or BMI2: the Mul and Square entries must jump
// to their Go bodies with the arguments in place, and fp.Mul beneath them
// to its Go kernel.
func TestFp2KernelsWithoutADX(t *testing.T) {
	defer func(saved bool) { fpUseADX = saved }(fpUseADX)
	fpUseADX = false
	r := rand.New(rand.NewSource(23))
	coeff := func() fp.Element { return rawFp(randFp(r)) }
	for i := 0; i < 1000; i++ {
		checkFp2Kernels(t, fp2{coeff(), coeff()}, fp2{coeff(), coeff()})
	}
}
