package bn254

import "math/big"

// Reference implementations that production code no longer runs. The
// property tests pin the fast paths to them and the ablation benchmarks
// measure against them.

var (
	// millerLoopCount is 6u+2, the loop counter of the optimal ate
	// pairing, walked bit by bit by millerLoopBinary.
	millerLoopCount = new(big.Int).Add(new(big.Int).Mul(u, big.NewInt(6)), big.NewInt(2))

	// pSquared is p², the exponent of the p²-power Frobenius.
	pSquared = new(big.Int).Mul(P, P)

	// finalExpHard is (p⁴ − p² + 1)/r, the hard part of the final
	// exponentiation, computed from p and r.
	finalExpHard = func() *big.Int {
		e := new(big.Int).Mul(pSquared, pSquared)
		e.Sub(e, pSquared)
		e.Add(e, big.NewInt(1))
		q, m := new(big.Int).DivMod(e, Order, new(big.Int))
		if m.Sign() != 0 {
			panic("bn254: (p⁴-p²+1) not divisible by r")
		}
		return q
	}()
)

// millerLoopBinary is the Miller loop over the binary digits of 6u+2 (one
// addition step per one bit), the oracle for the signed-digit millerLoop.
// The two Miller functions differ by vertical-line factors, so only their
// final exponentiations agree.
func millerLoopBinary(P *G1, Q *G2) *fp12 {
	var f fp12
	f.SetOne()
	if P.inf || Q.inf {
		return &f
	}
	var T g2Jac
	T.fromAffine(Q)
	var lc lineCoeff
	for i := millerLoopCount.BitLen() - 2; i >= 0; i-- {
		f.Square(&f)
		if doubleStep(&lc, &T) {
			evalLine(&f, &lc, P)
		}
		if millerLoopCount.Bit(i) == 1 {
			if addStep(&lc, &T, Q) {
				evalLine(&f, &lc, P)
			}
		}
	}

	var Q1, Q2, minusQ2 G2
	Q1.frobeniusTwist(Q)
	Q2.frobeniusTwist(&Q1)
	minusQ2.Neg(&Q2)
	if addStep(&lc, &T, &Q1) {
		evalLine(&f, &lc, P)
	}
	if addStep(&lc, &T, &minusQ2) {
		evalLine(&f, &lc, P)
	}
	return &f
}

// pairReference is the pairing through the oracles only: the binary Miller
// loop, the easy part and a generic exponentiation by the hard-part
// exponent.
func pairReference(P *G1, Q *G2) *fp12 {
	return hardPartDirect(easyPart(millerLoopBinary(P, Q)))
}

// expBinary sets e = a^k by plain square-and-multiply and returns e.
func (e *fp12) expBinary(a *fp12, k *big.Int) *fp12 {
	var res, base fp12
	res.SetOne()
	base.Set(a)
	for i := k.BitLen() - 1; i >= 0; i-- {
		res.Square(&res)
		if k.Bit(i) == 1 {
			res.Mul(&res, &base)
		}
	}
	return e.Set(&res)
}

// hardPartDirect computes m^((p⁴−p²+1)/r) by generic exponentiation, the
// oracle for the addition chain in hardPartChain.
func hardPartDirect(m *fp12) *fp12 {
	var out fp12
	out.Exp(m, finalExpHard)
	return &out
}

// scalarMultAffine is the double-and-add ladder in affine coordinates (one
// modular inversion per step).
func (p *G1) scalarMultAffine(a *G1, k *big.Int) *G1 {
	kk := new(big.Int).Mod(k, Order)
	var acc G1
	acc.inf = true
	var base G1
	base.Set(a)
	for i := kk.BitLen() - 1; i >= 0; i-- {
		acc.Double(&acc)
		if kk.Bit(i) == 1 {
			acc.Add(&acc, &base)
		}
	}
	return p.Set(&acc)
}

// scalarBaseMultGeneric computes k·G through the generic ladder, without
// the fixed-base table.
func (p *G1) scalarBaseMultGeneric(k *big.Int) *G1 {
	return p.ScalarMult(&g1Gen, k)
}

// scalarMultAffine is the double-and-add ladder in affine coordinates.
func (p *G2) scalarMultAffine(a *G2, k *big.Int) *G2 {
	kk := new(big.Int).Mod(k, Order)
	var acc G2
	acc.inf = true
	var base G2
	base.Set(a)
	for i := kk.BitLen() - 1; i >= 0; i-- {
		acc.Double(&acc)
		if kk.Bit(i) == 1 {
			acc.Add(&acc, &base)
		}
	}
	return p.Set(&acc)
}

// scalarBaseMultGeneric computes k·G through the generic ladder, without
// the fixed-base table.
func (p *G2) scalarBaseMultGeneric(k *big.Int) *G2 {
	return p.ScalarMult(&g2Gen, k)
}
