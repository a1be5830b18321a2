package bn254

import "math/big"

// Reference implementations that production code no longer runs. The
// property tests pin the fast paths to them and the ablation benchmarks
// measure against them.

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
