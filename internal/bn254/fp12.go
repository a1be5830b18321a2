package bn254

// fp12 is an element of Fp12 = Fp6[ω]/(ω²−τ), stored as c0 + c1·ω.
// The zero value is the field's zero element.
type fp12 struct {
	c0, c1 fp6
}

// Set assigns a to e and returns e.
func (e *fp12) Set(a *fp12) *fp12 {
	e.c0.Set(&a.c0)
	e.c1.Set(&a.c1)
	return e
}

// SetOne assigns 1 to e and returns e.
func (e *fp12) SetOne() *fp12 {
	e.c0.SetOne()
	e.c1.SetZero()
	return e
}

// Equal reports whether e == a.
func (e *fp12) Equal(a *fp12) bool {
	return e.c0.Equal(&a.c0) && e.c1.Equal(&a.c1)
}

// Mul sets e = a·b and returns e. Aliasing is allowed.
func (e *fp12) Mul(a, b *fp12) *fp12 {
	// Karatsuba over ω² = τ: with v0 = a0b0 and v1 = a1b1,
	//   z0 = v0 + τ v1
	//   z1 = (a0+a1)(b0+b1) − v0 − v1
	// Three fp6 multiplications instead of four.
	var v0, v1, s, t fp6
	v0.Mul(&a.c0, &b.c0)
	v1.Mul(&a.c1, &b.c1)
	s.Add(&a.c0, &a.c1)
	t.Add(&b.c0, &b.c1)
	s.Mul(&s, &t)
	s.Sub(&s, &v0)
	s.Sub(&s, &v1)

	var z0 fp6
	z0.MulByTau(&v1)
	z0.Add(&z0, &v0)

	e.c0.Set(&z0)
	e.c1.Set(&s)
	return e
}

// Square sets e = a² and returns e.
func (e *fp12) Square(a *fp12) *fp12 {
	// Complex squaring: with v = a0a1,
	//   z0 = (a0 + a1)(a0 + τ a1) − v − τ v  (= a0² + τ a1²)
	//   z1 = 2v
	// Two fp6 multiplications instead of three.
	var v, s, t fp6
	v.Mul(&a.c0, &a.c1)
	s.Add(&a.c0, &a.c1)
	t.MulByTau(&a.c1)
	t.Add(&t, &a.c0)
	s.Mul(&s, &t)
	s.Sub(&s, &v)
	t.MulByTau(&v)
	s.Sub(&s, &t)

	e.c0.Set(&s)
	e.c1.Double(&v)
	return e
}

// Conjugate sets e = a0 - a1·ω, which equals a^(p⁶), and returns e.
func (e *fp12) Conjugate(a *fp12) *fp12 {
	e.c0.Set(&a.c0)
	e.c1.Neg(&a.c1)
	return e
}

// Inverse sets e = a⁻¹ and returns e. Panics on zero input.
func (e *fp12) Inverse(a *fp12) *fp12 {
	// (a0 + a1ω)⁻¹ = (a0 - a1ω)/(a0² - τ a1²)
	var d, t fp6
	d.Square(&a.c0)
	t.Square(&a.c1)
	t.MulByTau(&t)
	d.Sub(&d, &t)
	d.Inverse(&d)

	e.c0.Mul(&a.c0, &d)
	t.Neg(&a.c1)
	e.c1.Mul(&t, &d)
	return e
}

// Frobenius sets e = a^p and returns e.
func (e *fp12) Frobenius(a *fp12) *fp12 {
	// (c0 + c1ω)^p = Frob6(c0) + ξ^((p-1)/6)·Frob6(c1)·ω
	e.c0.Frobenius(&a.c0)
	var t fp6
	t.Frobenius(&a.c1)
	e.c1.MulByFp2(&t, &xiToPMinus1Over6)
	return e
}

// FrobeniusP2 sets e = a^(p²) and returns e.
func (e *fp12) FrobeniusP2(a *fp12) *fp12 {
	e.Frobenius(a)
	return e.Frobenius(e)
}

// mulByLine sets e = a·l for the sparse line value
// l = (A, 0, 0) + (B, C, 0)·ω and returns e. Aliasing of e with a is
// allowed. This is Mul's Karatsuba with l0 = A ∈ Fp2 and l1 = B + C·τ:
// v0 = a0·A costs 3 fp2 multiplications and v1 = a1·l1 and
// (a0+a1)(l0+l1) cost 5 each (fp6.mulBy01), 13 in all against Mul's 18.
func (e *fp12) mulByLine(a *fp12, A, B, C *fp2) *fp12 {
	var v0, v1, s fp6
	v0.MulByFp2(&a.c0, A)
	v1.mulBy01(&a.c1, B, C)
	var AB fp2
	AB.Add(A, B)
	s.Add(&a.c0, &a.c1)
	s.mulBy01(&s, &AB, C)
	s.Sub(&s, &v0)
	e.c1.Sub(&s, &v1)
	e.c0.MulByTau(&v1)
	e.c0.Add(&e.c0, &v0)
	return e
}
