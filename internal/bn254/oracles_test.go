package bn254

import "math/big"

// Test-only helpers on the group and field types: identity elements and
// predicates the tests use as oracles, and the square-and-multiply Fp12
// power the hard part of the final exponentiation is checked against. No
// production path needs them.

// Exp sets e = a^k for non-negative k and returns e. Aliasing is allowed.
// It is 4-bit fixed-window square-and-multiply on generic squarings, so it
// is correct for every element of Fp12; GT.IsInSubgroup and the reference
// hard part rely on that. Exponentiations of elements known to lie in the
// cyclotomic subgroup use cyclotomicMultiExp instead.
func (e *fp12) Exp(a *fp12, k *big.Int) *fp12 {
	// Precompute a^0 .. a^15.
	var table [16]fp12
	table[0].SetOne()
	table[1].Set(a)
	for i := 2; i < 16; i++ {
		table[i].Mul(&table[i-1], a)
	}
	var res fp12
	res.SetOne()
	bits := k.BitLen()
	// Round up to a multiple of 4 and scan nibbles MSB→LSB.
	top := (bits + 3) / 4 * 4
	for i := top - 4; i >= 0; i -= 4 {
		res.Square(&res)
		res.Square(&res)
		res.Square(&res)
		res.Square(&res)
		nib := k.Bit(i) | k.Bit(i+1)<<1 | k.Bit(i+2)<<2 | k.Bit(i+3)<<3
		if nib != 0 {
			res.Mul(&res, &table[nib])
		}
	}
	return e.Set(&res)
}

// IsOne reports whether e == 1.
func (e *fp12) IsOne() bool { return e.c0.IsOne() && e.c1.IsZero() }

// IsZero reports whether e == 0.
func (e *fp12) IsZero() bool { return e.c0.IsZero() && e.c1.IsZero() }

// SetZero assigns 0 to e and returns e.
func (e *fp12) SetZero() *fp12 {
	e.c0.SetZero()
	e.c1.SetZero()
	return e
}

// IsOne reports whether e == 1.
func (e *fp2) IsOne() bool {
	return e.Equal(new(fp2).SetOne())
}

// IsOne reports whether e == 1.
func (e *fp6) IsOne() bool {
	return e.c0.IsOne() && e.c1.IsZero() && e.c2.IsZero()
}

// IsZero reports whether e == 0.
func (e *fp6) IsZero() bool {
	return e.c0.IsZero() && e.c1.IsZero() && e.c2.IsZero()
}

// Equal reports whether p == q.
func (p *G1) Equal(q *G1) bool {
	if p.inf || q.inf {
		return p.inf == q.inf
	}
	return p.x.Equal(&q.x) && p.y.Equal(&q.y)
}

// IsInfinity reports whether p is the identity.
func (p *G1) IsInfinity() bool { return p.inf }

// G1Infinity returns the identity element of G1.
func G1Infinity() *G1 { return &G1{inf: true} }

// IsInfinity reports whether p is the identity.
func (p *G2) IsInfinity() bool { return p.inf }

// G2Infinity returns the identity element of G2.
func G2Infinity() *G2 { return &G2{inf: true} }

// IsInSubgroup reports whether g^r == 1. It must judge elements outside
// GT, so it runs the generic fp12.Exp rather than the cyclotomic one.
func (g *GT) IsInSubgroup() bool {
	var t fp12
	t.Exp(&g.v, Order)
	return t.IsOne()
}

// Inverse sets g = a⁻¹ and returns g. For subgroup elements the inverse is
// the cheap conjugate a^(p⁶); we use the generic field inverse so that the
// operation is correct for any nonzero input.
func (g *GT) Inverse(a *GT) *GT {
	g.v.Inverse(&a.v)
	return g
}

// IsOne reports whether g is the identity.
func (g *GT) IsOne() bool { return g.v.IsOne() }
