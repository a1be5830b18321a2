package bn254

import (
	"typepre/internal/bn254/fp"
)

// fp6 is an element of Fp6 = Fp2[τ]/(τ³−ξ), stored as c0 + c1·τ + c2·τ²
// with ξ = 9+i. The zero value is the field's zero element.
type fp6 struct {
	c0, c1, c2 fp2
}

// Set assigns a to e and returns e.
func (e *fp6) Set(a *fp6) *fp6 {
	*e = *a
	return e
}

// SetZero assigns 0 to e and returns e.
func (e *fp6) SetZero() *fp6 {
	*e = fp6{}
	return e
}

// SetOne assigns 1 to e and returns e.
func (e *fp6) SetOne() *fp6 {
	e.c0.SetOne()
	e.c1.SetZero()
	e.c2.SetZero()
	return e
}

// Equal reports whether e == a.
func (e *fp6) Equal(a *fp6) bool {
	return e.c0.Equal(&a.c0) && e.c1.Equal(&a.c1) && e.c2.Equal(&a.c2)
}

// Add sets e = a + b and returns e.
func (e *fp6) Add(a, b *fp6) *fp6 {
	e.c0.Add(&a.c0, &b.c0)
	e.c1.Add(&a.c1, &b.c1)
	e.c2.Add(&a.c2, &b.c2)
	return e
}

// Sub sets e = a - b and returns e.
func (e *fp6) Sub(a, b *fp6) *fp6 {
	e.c0.Sub(&a.c0, &b.c0)
	e.c1.Sub(&a.c1, &b.c1)
	e.c2.Sub(&a.c2, &b.c2)
	return e
}

// Double sets e = 2a and returns e.
func (e *fp6) Double(a *fp6) *fp6 {
	e.c0.Double(&a.c0)
	e.c1.Double(&a.c1)
	e.c2.Double(&a.c2)
	return e
}

// Neg sets e = -a and returns e.
func (e *fp6) Neg(a *fp6) *fp6 {
	e.c0.Neg(&a.c0)
	e.c1.Neg(&a.c1)
	e.c2.Neg(&a.c2)
	return e
}

// mulByXiGeneric sets e = a·ξ for a ∈ Fp2 viewed in Fp6: the Go body of
// mulByXi (fp2_amd64.go, fp2_other.go) and the oracle of its amd64 kernel.
func mulByXiGeneric(e, a *fp2) {
	// (c0 + c1·i)(9 + i) = (9c0 - c1) + (9c1 + c0)·i
	var t0, t1 fp.Element
	t0.Double(&a.c0)
	t0.Double(&t0)
	t0.Double(&t0)
	t0.Add(&t0, &a.c0) // 9c0
	t0.Sub(&t0, &a.c1)
	t1.Double(&a.c1)
	t1.Double(&t1)
	t1.Double(&t1)
	t1.Add(&t1, &a.c1) // 9c1
	t1.Add(&t1, &a.c0)
	e.c0.Set(&t0)
	e.c1.Set(&t1)
}

// Mul sets e = a·b and returns e. Aliasing is allowed.
func (e *fp6) Mul(a, b *fp6) *fp6 {
	// Karatsuba interpolation with τ³ = ξ (Devegili et al., Alg. 13):
	// with v0 = a0b0, v1 = a1b1, v2 = a2b2,
	//   z0 = v0 + ξ((a1+a2)(b1+b2) − v1 − v2)
	//   z1 = (a0+a1)(b0+b1) − v0 − v1 + ξ v2
	//   z2 = (a0+a2)(b0+b2) − v0 − v2 + v1
	// Six fp2 multiplications instead of the schoolbook nine.
	var v0, v1, v2, s, t, z0, z1, z2 fp2
	v0.Mul(&a.c0, &b.c0)
	v1.Mul(&a.c1, &b.c1)
	v2.Mul(&a.c2, &b.c2)

	s.Add(&a.c1, &a.c2)
	t.Add(&b.c1, &b.c2)
	s.Mul(&s, &t)
	s.Sub(&s, &v1)
	s.Sub(&s, &v2)
	mulByXi(&s, &s)
	z0.Add(&v0, &s)

	s.Add(&a.c0, &a.c1)
	t.Add(&b.c0, &b.c1)
	s.Mul(&s, &t)
	s.Sub(&s, &v0)
	s.Sub(&s, &v1)
	mulByXi(&t, &v2)
	z1.Add(&s, &t)

	s.Add(&a.c0, &a.c2)
	t.Add(&b.c0, &b.c2)
	s.Mul(&s, &t)
	s.Sub(&s, &v0)
	s.Sub(&s, &v2)
	z2.Add(&s, &v1)

	e.c0.Set(&z0)
	e.c1.Set(&z1)
	e.c2.Set(&z2)
	return e
}

// Square sets e = a² and returns e.
func (e *fp6) Square(a *fp6) *fp6 {
	return e.Mul(a, a)
}

// mulBy01 sets e = a·(b0 + b1·τ) and returns e. Aliasing of e with a is
// allowed. With v0 = a0b0 and v1 = a1b1,
//
//	z0 = v0 + ξ·a2b1
//	z1 = (a0+a1)(b0+b1) − v0 − v1
//	z2 = v1 + a2b0
//
// five fp2 multiplications in place of Mul's six.
func (e *fp6) mulBy01(a *fp6, b0, b1 *fp2) *fp6 {
	var v0, v1, s, t, z0, z2 fp2
	v0.Mul(&a.c0, b0)
	v1.Mul(&a.c1, b1)

	t.Mul(&a.c2, b1)
	mulByXi(&z0, &t)
	z0.Add(&z0, &v0)
	z2.Mul(&a.c2, b0)
	z2.Add(&z2, &v1)

	s.Add(&a.c0, &a.c1)
	t.Add(b0, b1)
	s.Mul(&s, &t)
	s.Sub(&s, &v0)
	e.c1.Sub(&s, &v1)
	e.c0.Set(&z0)
	e.c2.Set(&z2)
	return e
}

// MulByFp2 sets e = a·s where s ∈ Fp2 acts coefficient-wise, and returns e.
func (e *fp6) MulByFp2(a *fp6, s *fp2) *fp6 {
	e.c0.Mul(&a.c0, s)
	e.c1.Mul(&a.c1, s)
	e.c2.Mul(&a.c2, s)
	return e
}

// MulByTau sets e = a·τ = ξc2 + c0·τ + c1·τ² and returns e. The temporaries
// keep the rotation alias-safe.
func (e *fp6) MulByTau(a *fp6) *fp6 {
	var t0, t1, t2 fp2
	mulByXi(&t0, &a.c2)
	t1.Set(&a.c0)
	t2.Set(&a.c1)
	e.c0.Set(&t0)
	e.c1.Set(&t1)
	e.c2.Set(&t2)
	return e
}

// Inverse sets e = a⁻¹ and returns e. Panics on zero input.
func (e *fp6) Inverse(a *fp6) *fp6 {
	// Standard formulas:
	//   A = c0² − ξ c1 c2,  B = ξ c2² − c0 c1,  C = c1² − c0 c2
	//   F = c0 A + ξ c1 C + ξ c2 B
	//   a⁻¹ = (A + B·τ + C·τ²)/F
	var A, B, C, F, t fp2

	A.Square(&a.c0)
	t.Mul(&a.c1, &a.c2)
	mulByXi(&t, &t)
	A.Sub(&A, &t)

	B.Square(&a.c2)
	mulByXi(&B, &B)
	t.Mul(&a.c0, &a.c1)
	B.Sub(&B, &t)

	C.Square(&a.c1)
	t.Mul(&a.c0, &a.c2)
	C.Sub(&C, &t)

	F.Mul(&a.c1, &C)
	mulByXi(&F, &F)
	t.Mul(&a.c0, &A)
	F.Add(&F, &t)
	t.Mul(&a.c2, &B)
	mulByXi(&t, &t)
	F.Add(&F, &t)

	F.Inverse(&F)
	e.c0.Mul(&A, &F)
	e.c1.Mul(&B, &F)
	e.c2.Mul(&C, &F)
	return e
}

// Frobenius sets e = a^p and returns e.
func (e *fp6) Frobenius(a *fp6) *fp6 {
	// (c0 + c1τ + c2τ²)^p = conj(c0) + conj(c1)·ξ^((p-1)/3)·τ
	//                               + conj(c2)·ξ^(2(p-1)/3)·τ²
	e.c0.Conjugate(&a.c0)
	e.c1.Conjugate(&a.c1)
	e.c1.Mul(&e.c1, &xiToPMinus1Over3)
	e.c2.Conjugate(&a.c2)
	e.c2.Mul(&e.c2, &xiTo2PMinus2Over3)
	return e
}
