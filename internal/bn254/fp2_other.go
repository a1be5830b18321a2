//go:build !amd64

package bn254

// Off amd64 the Fp2 kernels are their Go bodies.

func fp2Add(z, a, b *fp2) { fp2AddGeneric(z, a, b) }
func fp2Sub(z, a, b *fp2) { fp2SubGeneric(z, a, b) }
func fp2Double(z, a *fp2) { fp2DoubleGeneric(z, a) }
func fp2Neg(z, a *fp2)    { fp2NegGeneric(z, a) }
func fp2Mul(z, a, b *fp2) { fp2MulGeneric(z, a, b) }
func fp2Square(z, a *fp2) { fp2SquareGeneric(z, a) }

// mulByXi sets z = a·ξ with ξ = 9 + i.
func mulByXi(z, a *fp2) { mulByXiGeneric(z, a) }
