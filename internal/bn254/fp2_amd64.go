package bn254

// The fused Fp2 kernels of fp2_amd64.s: one call per operation, with both
// coefficients in registers. Each loads all of its operands before it
// stores z, so z may alias a and/or b, and each returns the canonical
// value of the Go body named beside it, which is the portable path
// (fp2_other.go) and the test oracle. Add, Sub, Double, Neg and mulByXi
// need only baseline amd64. Mul and Square run the ADX Montgomery product
// of package fp and test fp's CPUID flag themselves: without ADX and BMI2
// they jump to fp2MulGeneric and fp2SquareGeneric.

//go:noescape
func fp2Add(z, a, b *fp2) // fp2AddGeneric

//go:noescape
func fp2Sub(z, a, b *fp2) // fp2SubGeneric

//go:noescape
func fp2Double(z, a *fp2) // fp2DoubleGeneric

//go:noescape
func fp2Neg(z, a *fp2) // fp2NegGeneric

//go:noescape
func fp2Mul(z, a, b *fp2) // fp2MulGeneric

//go:noescape
func fp2Square(z, a *fp2) // fp2SquareGeneric

// mulByXi sets z = a·ξ with ξ = 9 + i.
//
//go:noescape
func mulByXi(z, a *fp2) // mulByXiGeneric
