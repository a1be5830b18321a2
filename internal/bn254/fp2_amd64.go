package bn254

import "math/big"

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

// Constants of the lazy kernels in fp2_amd64.s, checked against P at init.
const (
	// p² in little-endian limbs: fp2Mul adds it to keep c0 = v0 − v1
	// positive.
	pSquare0 = 0x3b5458a2275d69b1
	pSquare1 = 0xa602072d09eac101
	pSquare2 = 0x4a50189c6d96cadc
	pSquare3 = 0x04689e957a1242c8
	pSquare4 = 0x26edfa5c34c6b38d
	pSquare5 = 0xb00b855116375606
	pSquare6 = 0x599a6f7c0348d21c
	pSquare7 = 0x0925c4b8763cbf9c

	// xiMu = ⌊2^317/p⌋, the reciprocal in mulByXi's quotient estimate.
	xiMu = 0xa948e8c4c474094f
)

func init() {
	sq := new(big.Int)
	for _, l := range [...]uint64{pSquare7, pSquare6, pSquare5, pSquare4, pSquare3, pSquare2, pSquare1, pSquare0} {
		sq.Lsh(sq, 64).Or(sq, new(big.Int).SetUint64(l))
	}
	if sq.Cmp(new(big.Int).Mul(P, P)) != 0 {
		panic("bn254: pSquare does not match p²")
	}
	mu := new(big.Int).Lsh(big.NewInt(1), 317)
	if mu.Div(mu, P); !mu.IsUint64() || mu.Uint64() != xiMu {
		panic("bn254: xiMu does not match ⌊2^317/p⌋")
	}
}
