package bn254

import (
	"math/big"

	"typepre/internal/bn254/fp"
)

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

// scalarBaseMultGeneric computes k·G through the Jacobian ladder, without
// the endomorphism split.
func (p *G1) scalarBaseMultGeneric(k *big.Int) *G1 {
	return scalarMultJacobianG1(p, &g1Gen, k)
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

// scalarBaseMultGeneric computes k·G through the Jacobian ladder, without
// the endomorphism split.
func (p *G2) scalarBaseMultGeneric(k *big.Int) *G2 {
	return p.ScalarMult(&g2Gen, k)
}

// addMixed sets j = j + q for an affine, non-infinity q
// (madd-2007-bl formulas).
func (j *g1Jac) addMixed(q *G1) {
	if j.z.IsZero() {
		j.fromAffine(q)
		return
	}
	var z1z1, u2, s2, h, hh, i, jj, rr, v, t fp.Element
	z1z1.Square(&j.z)
	u2.Mul(&q.x, &z1z1)
	s2.Mul(&q.y, &j.z)
	s2.Mul(&s2, &z1z1)
	h.Sub(&u2, &j.x)
	rr.Sub(&s2, &j.y)
	rr.Double(&rr)
	if h.IsZero() {
		if rr.IsZero() {
			j.double()
			return
		}
		j.setInfinity()
		return
	}
	hh.Square(&h)
	i.Double(&hh)
	i.Double(&i)
	jj.Mul(&h, &i)
	v.Mul(&j.x, &i)
	var x3, y3, z3 fp.Element
	// X3 = r² − J − 2V
	x3.Square(&rr)
	x3.Sub(&x3, &jj)
	t.Double(&v)
	x3.Sub(&x3, &t)
	// Y3 = r(V − X3) − 2·Y1·J
	y3.Sub(&v, &x3)
	y3.Mul(&y3, &rr)
	t.Mul(&j.y, &jj)
	t.Double(&t)
	y3.Sub(&y3, &t)
	// Z3 = (Z1 + H)² − Z1Z1 − HH
	z3.Add(&j.z, &h)
	z3.Square(&z3)
	z3.Sub(&z3, &z1z1)
	z3.Sub(&z3, &hh)

	j.x.Set(&x3)
	j.y.Set(&y3)
	j.z.Set(&z3)
}

// scalarMultJacobianG1 computes k·a via the Jacobian ladder over all of k
// mod r, the oracle for G1.ScalarMult's endomorphism split.
func scalarMultJacobianG1(p *G1, a *G1, k *big.Int) *G1 {
	kk := new(big.Int).Mod(k, Order)
	var acc g1Jac
	acc.setInfinity()
	if a.inf || kk.Sign() == 0 {
		p.inf = true
		p.x.SetZero()
		p.y.SetZero()
		return p
	}
	var base G1
	base.Set(a)
	for i := kk.BitLen() - 1; i >= 0; i-- {
		acc.double()
		if kk.Bit(i) == 1 {
			acc.addMixed(&base)
		}
	}
	acc.toAffine(p)
	return p
}

// expWindowed sets e = a^k for a in GT by the width-5 signed-window
// exponentiation over all of k mod r that GT.Exp ran before the
// endomorphism split: one squaring per bit of k.
func (e *fp12) expWindowed(a *fp12, k *big.Int) *fp12 {
	var tab [1 << (5 - 2)]fp12
	oddPowers(tab[:], a)
	return e.cyclotomicMultiExp([][]fp12{tab[:]}, [][]int8{wnaf(new(big.Int).Mod(k, Order), 5)})
}

// Fixed-base window tables, which G1.ScalarBaseMult, G2.ScalarBaseMult and
// GTExpBase ran before the endomorphism split: tab[w][v−1] = v·2^(4w)·B
// for 64 windows of 4 bits, 960 entries per base (69 KiB on G1, 128 KiB on
// G2, 360 KiB on GT). They drop every doubling, at the price of the memory.

// windowValue extracts window w (4 bits) of the reduced scalar k.
func windowValue(k *big.Int, w int) uint {
	v := uint(0)
	for b := 0; b < 4; b++ {
		v |= k.Bit(4*w+b) << b
	}
	return v
}

type g1WindowTable [64][15]G1

func newG1WindowTable(base *G1) *g1WindowTable {
	t := new(g1WindowTable)
	var cur G1
	cur.Set(base)
	for w := range t {
		t[w][0].Set(&cur)
		for v := 1; v < 15; v++ {
			t[w][v].Add(&t[w][v-1], &cur)
		}
		cur.Add(&t[w][14], &cur) // 16·cur
	}
	return t
}

func (t *g1WindowTable) mul(p *G1, k *big.Int) *G1 {
	kk := new(big.Int).Mod(k, Order)
	var acc g1Jac
	acc.setInfinity()
	for w := range t {
		if v := windowValue(kk, w); v != 0 {
			acc.addMixed(&t[w][v-1])
		}
	}
	acc.toAffine(p)
	return p
}

type g2WindowTable [64][15]G2

func newG2WindowTable(base *G2) *g2WindowTable {
	t := new(g2WindowTable)
	var cur G2
	cur.Set(base)
	for w := range t {
		t[w][0].Set(&cur)
		for v := 1; v < 15; v++ {
			t[w][v].Add(&t[w][v-1], &cur)
		}
		cur.Add(&t[w][14], &cur)
	}
	return t
}

func (t *g2WindowTable) mul(p *G2, k *big.Int) *G2 {
	kk := new(big.Int).Mod(k, Order)
	var acc g2Jac
	acc.setInfinity()
	for w := range t {
		if v := windowValue(kk, w); v != 0 {
			acc.addMixed(&t[w][v-1])
		}
	}
	acc.toAffine(p)
	return p
}

type gtWindowTable [64][15]fp12

func newGTWindowTable(base *fp12) *gtWindowTable {
	t := new(gtWindowTable)
	var cur fp12
	cur.Set(base)
	for w := range t {
		t[w][0].Set(&cur)
		for v := 1; v < 15; v++ {
			t[w][v].Mul(&t[w][v-1], &cur)
		}
		cur.Mul(&t[w][14], &cur)
	}
	return t
}

func (t *gtWindowTable) exp(out *fp12, k *big.Int) *fp12 {
	kk := new(big.Int).Mod(k, Order)
	out.SetOne()
	for w := range t {
		if v := windowValue(kk, w); v != 0 {
			out.Mul(out, &t[w][v-1])
		}
	}
	return out
}
