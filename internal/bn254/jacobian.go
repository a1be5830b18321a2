package bn254

import (
	"math/big"

	"typepre/internal/bn254/fp"
)

// Jacobian-coordinate arithmetic for G1 and G2. A point (X, Y, Z)
// represents the affine point (X/Z², Y/Z³); doubling and addition avoid the
// per-step field inversion of the affine formulas, which dominates their
// cost (a constant-time inversion is hundreds of multiplications). The
// scalar multiplications of g1.go, g2.go and split.go accumulate here; the
// affine ladders (scalarMultAffine in reference_test.go) are their
// property-tested references and the ablation benchmarks' baseline.

// g1Jac is a G1 point in Jacobian coordinates; Z=0 encodes infinity.
type g1Jac struct {
	x, y, z fp.Element
}

func (j *g1Jac) setInfinity() {
	j.x.SetOne()
	j.y.SetOne()
	j.z.SetZero()
}

func (j *g1Jac) fromAffine(p *G1) {
	if p.inf {
		j.setInfinity()
		return
	}
	j.x.Set(&p.x)
	j.y.Set(&p.y)
	j.z.SetOne()
}

func (j *g1Jac) toAffine(p *G1) {
	if j.z.IsZero() {
		p.inf = true
		p.x.SetZero()
		p.y.SetZero()
		return
	}
	var zInv, zInv2, zInv3 fp.Element
	zInv.Inverse(&j.z)
	zInv2.Square(&zInv)
	zInv3.Mul(&zInv2, &zInv)
	p.x.Mul(&j.x, &zInv2)
	p.y.Mul(&j.y, &zInv3)
	p.inf = false
}

// double sets j = 2j (dbl-2009-l formulas, a = 0).
func (j *g1Jac) double() {
	if j.z.IsZero() {
		return
	}
	var a, b, c, d, e, f, t fp.Element
	a.Square(&j.x) // A = X²
	b.Square(&j.y) // B = Y²
	c.Square(&b)   // C = B²
	// D = 2((X+B)² − A − C)
	d.Add(&j.x, &b)
	d.Square(&d)
	d.Sub(&d, &a)
	d.Sub(&d, &c)
	d.Double(&d)
	// E = 3A, F = E²
	e.Double(&a)
	e.Add(&e, &a)
	f.Square(&e)
	// Z3 = 2YZ (uses old Y)
	var z3 fp.Element
	z3.Mul(&j.y, &j.z)
	z3.Double(&z3)
	// X3 = F − 2D
	t.Double(&d)
	j.x.Sub(&f, &t)
	// Y3 = E(D − X3) − 8C
	t.Sub(&d, &j.x)
	t.Mul(&t, &e)
	c.Double(&c)
	c.Double(&c)
	c.Double(&c)
	j.y.Sub(&t, &c)
	j.z.Set(&z3)
}

// add sets j = j + q for a Jacobian q (add-2007-bl formulas). Aliasing
// is allowed.
func (j *g1Jac) add(q *g1Jac) {
	if q.z.IsZero() {
		return
	}
	if j.z.IsZero() {
		*j = *q
		return
	}
	var z1z1, z2z2, u1, u2, s1, s2, h, i, jj, rr, v, t fp.Element
	z1z1.Square(&j.z)
	z2z2.Square(&q.z)
	u1.Mul(&j.x, &z2z2)
	u2.Mul(&q.x, &z1z1)
	s1.Mul(&j.y, &q.z)
	s1.Mul(&s1, &z2z2)
	s2.Mul(&q.y, &j.z)
	s2.Mul(&s2, &z1z1)
	h.Sub(&u2, &u1)
	rr.Sub(&s2, &s1)
	if h.IsZero() {
		if rr.IsZero() {
			j.double()
			return
		}
		j.setInfinity()
		return
	}
	rr.Double(&rr)
	// I = (2H)², J = H·I, V = U1·I
	i.Double(&h)
	i.Square(&i)
	jj.Mul(&h, &i)
	v.Mul(&u1, &i)
	// Z3 = ((Z1 + Z2)² − Z1Z1 − Z2Z2)·H
	var x3, y3, z3 fp.Element
	z3.Add(&j.z, &q.z)
	z3.Square(&z3)
	z3.Sub(&z3, &z1z1)
	z3.Sub(&z3, &z2z2)
	z3.Mul(&z3, &h)
	// X3 = r² − J − 2V
	x3.Square(&rr)
	x3.Sub(&x3, &jj)
	t.Double(&v)
	x3.Sub(&x3, &t)
	// Y3 = r(V − X3) − 2·S1·J
	y3.Sub(&v, &x3)
	y3.Mul(&y3, &rr)
	t.Mul(&s1, &jj)
	t.Double(&t)
	y3.Sub(&y3, &t)

	j.x.Set(&x3)
	j.y.Set(&y3)
	j.z.Set(&z3)
}

// g2Jac is a G2 point in Jacobian coordinates over Fp2; Z=0 is infinity.
type g2Jac struct {
	x, y, z fp2
}

func (j *g2Jac) setInfinity() {
	j.x.SetOne()
	j.y.SetOne()
	j.z.SetZero()
}

func (j *g2Jac) fromAffine(p *G2) {
	if p.inf {
		j.setInfinity()
		return
	}
	j.x.Set(&p.x)
	j.y.Set(&p.y)
	j.z.SetOne()
}

func (j *g2Jac) toAffine(p *G2) {
	if j.z.IsZero() {
		p.inf = true
		p.x.SetZero()
		p.y.SetZero()
		return
	}
	var zInv, zInv2, zInv3 fp2
	zInv.Inverse(&j.z)
	zInv2.Square(&zInv)
	zInv3.Mul(&zInv2, &zInv)
	p.x.Mul(&j.x, &zInv2)
	p.y.Mul(&j.y, &zInv3)
	p.inf = false
}

func (j *g2Jac) double() {
	if j.z.IsZero() {
		return
	}
	var a, b, c, d, e, f, t fp2
	a.Square(&j.x)
	b.Square(&j.y)
	c.Square(&b)
	d.Add(&j.x, &b)
	d.Square(&d)
	d.Sub(&d, &a)
	d.Sub(&d, &c)
	d.Double(&d)
	e.Double(&a)
	e.Add(&e, &a)
	f.Square(&e)
	var z3 fp2
	z3.Mul(&j.y, &j.z)
	z3.Double(&z3)
	t.Double(&d)
	j.x.Sub(&f, &t)
	t.Sub(&d, &j.x)
	t.Mul(&t, &e)
	c.Double(&c)
	c.Double(&c)
	c.Double(&c)
	j.y.Sub(&t, &c)
	j.z.Set(&z3)
}

func (j *g2Jac) addMixed(q *G2) {
	if j.z.IsZero() {
		j.fromAffine(q)
		return
	}
	var z1z1, u2, s2, h, hh, i, jj, rr, v, t fp2
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
	var x3, y3, z3 fp2
	x3.Square(&rr)
	x3.Sub(&x3, &jj)
	t.Double(&v)
	x3.Sub(&x3, &t)
	y3.Sub(&v, &x3)
	y3.Mul(&y3, &rr)
	t.Mul(&j.y, &jj)
	t.Double(&t)
	y3.Sub(&y3, &t)
	z3.Add(&j.z, &h)
	z3.Square(&z3)
	z3.Sub(&z3, &z1z1)
	z3.Sub(&z3, &hh)
	j.x.Set(&x3)
	j.y.Set(&y3)
	j.z.Set(&z3)
}

// scalarMultJacobianG2 computes k·a via the Jacobian ladder over Fp2.
func scalarMultJacobianG2(p *G2, a *G2, k *big.Int) *G2 {
	kk := new(big.Int).Mod(k, Order)
	if a.inf || kk.Sign() == 0 {
		p.inf = true
		p.x.SetZero()
		p.y.SetZero()
		return p
	}
	var acc g2Jac
	acc.setInfinity()
	var base G2
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
