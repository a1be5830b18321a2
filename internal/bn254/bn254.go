// Package bn254 implements the alt_bn128 (BN254) pairing-friendly elliptic
// curve entirely on top of the Go standard library.
//
// It provides the bilinear-group substrate the paper assumes in Section 3.1:
// groups G1, G2 and GT of prime order r, and an efficiently computable
// non-degenerate bilinear map ê: G1 × G2 → GT (the optimal ate pairing).
//
// The curve is the Barreto–Naehrig curve with parameter u = 4965661367192848881:
//
//	E  : y² = x³ + 3        over Fp        (G1)
//	E' : y² = x³ + 3/ξ      over Fp2       (G2, sextic D-twist, ξ = 9+i)
//	GT : order-r subgroup of Fp12*
//
// where p = 36u⁴+36u³+24u²+6u+1 and r = 36u⁴+36u³+18u²+6u+1. The extension
// tower is Fp2 = Fp[i]/(i²+1), Fp6 = Fp2[τ]/(τ³−ξ), Fp12 = Fp6[ω]/(ω²−τ).
//
// Base-field arithmetic runs on the 4×64-bit Montgomery-limb elements of
// internal/bn254/fp; see docs/bn254.md for the representation. Side-channel
// posture, precisely: all Fp and Fp2 field arithmetic (add, sub, neg, mul,
// square, inversion, square root) is constant time — an input-independent
// sequence of word operations with no secret-dependent branches or table
// indices. What is NOT constant time, and is documented as such: scalar
// recoding (the double-and-add ladders and fixed-base window tables branch
// on scalar bits), hash-to-curve (try-and-increment by construction), the
// point-at-infinity flags, and the big.Int conversion shims. Scalars and
// hashing inputs therefore leak timing; protecting real long-term secrets
// against a local side-channel adversary additionally requires a
// constant-time ladder, which this reproduction does not claim — see
// DESIGN.md for the substitution argument against the era's PBC/MIRACL
// libraries.
package bn254

import (
	"math/big"

	"typepre/internal/bn254/fp"
)

// u is the BN parameter. All curve constants derive from it.
const uParam = 4965661367192848881

var (
	// u is the BN parameter as a big integer.
	u = new(big.Int).SetInt64(uParam)

	// P is the prime modulus of the base field Fp.
	P, _ = new(big.Int).SetString("21888242871839275222246405745257275088696311157297823662689037894645226208583", 10)

	// Order (r) is the prime order of G1, G2 and GT.
	Order, _ = new(big.Int).SetString("21888242871839275222246405745257275088548364400416034343698204186575808495617", 10)

	// curveB is the constant of E: y² = x³ + curveB over Fp.
	curveB fp.Element

	// twistB is 3/ξ, the constant of the twist E'.
	twistB fp2

	// Frobenius constants on the twist and the tower, all derived from
	// ξ = 9+i at package init (nothing beyond p, r and the generators is
	// hard-coded, which guards against transcription errors).
	xiToPMinus1Over6  fp2 // ξ^((p-1)/6)
	xiToPMinus1Over3  fp2 // ξ^((p-1)/3)
	xiToPMinus1Over2  fp2 // ξ^((p-1)/2)
	xiTo2PMinus2Over3 fp2 // ξ^(2(p-1)/3)
)

func init() {
	// Re-derive p and r from u and cross-check the hard-coded decimal
	// strings; a mismatch means a corrupted constant, so refuse to run.
	u2 := new(big.Int).Mul(u, u)
	u3 := new(big.Int).Mul(u2, u)
	u4 := new(big.Int).Mul(u3, u)

	pCheck := new(big.Int).Mul(u4, big.NewInt(36))
	pCheck.Add(pCheck, new(big.Int).Mul(u3, big.NewInt(36)))
	pCheck.Add(pCheck, new(big.Int).Mul(u2, big.NewInt(24)))
	pCheck.Add(pCheck, new(big.Int).Mul(u, big.NewInt(6)))
	pCheck.Add(pCheck, big.NewInt(1))
	if pCheck.Cmp(P) != 0 {
		panic("bn254: field modulus does not match BN(u) derivation")
	}
	if fp.Modulus().Cmp(P) != 0 {
		panic("bn254: fp package modulus does not match P")
	}

	rCheck := new(big.Int).Mul(u4, big.NewInt(36))
	rCheck.Add(rCheck, new(big.Int).Mul(u3, big.NewInt(36)))
	rCheck.Add(rCheck, new(big.Int).Mul(u2, big.NewInt(18)))
	rCheck.Add(rCheck, new(big.Int).Mul(u, big.NewInt(6)))
	rCheck.Add(rCheck, big.NewInt(1))
	if rCheck.Cmp(Order) != 0 {
		panic("bn254: group order does not match BN(u) derivation")
	}

	// The Miller loop walks the signed digits of 6u+2 from a leading 1;
	// refuse to run unless they recombine to 6u+2.
	loop := new(big.Int).Mul(u, big.NewInt(6))
	loop.Add(loop, big.NewInt(2))
	if millerLoopNAF[len(millerLoopNAF)-1] != 1 || recombine(millerLoopNAF).Cmp(loop) != 0 {
		panic("bn254: Miller loop digits do not recombine to 6u+2")
	}
	if recombine(uNAF).Cmp(u) != 0 {
		panic("bn254: recoded digits of u do not recombine to u")
	}

	curveB.SetUint64(3)

	// ξ = 9 + i.
	var xi fp2
	xi.c0.SetUint64(9)
	xi.c1.SetUint64(1)

	// twistB = 3 · ξ⁻¹.
	var xiInv fp2
	xiInv.Inverse(&xi)
	twistB.MulScalar(&xiInv, &curveB)

	pm1 := new(big.Int).Sub(P, big.NewInt(1))
	e6 := new(big.Int).Div(pm1, big.NewInt(6))
	e3 := new(big.Int).Div(pm1, big.NewInt(3))
	e2 := new(big.Int).Div(pm1, big.NewInt(2))
	xiToPMinus1Over6.Exp(&xi, e6)
	xiToPMinus1Over3.Exp(&xi, e3)
	xiToPMinus1Over2.Exp(&xi, e2)
	xiTo2PMinus2Over3.Square(&xiToPMinus1Over3)

	initGenerators()
}
