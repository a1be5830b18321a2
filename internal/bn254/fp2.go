package bn254

import (
	"fmt"
	"math/big"

	"typepre/internal/bn254/fp"
)

// fp2 is an element of Fp2 = Fp[i]/(i²+1), stored as c0 + c1·i on limb-based
// base-field elements. The zero value is the field's zero element.
type fp2 struct {
	c0, c1 fp.Element
}

func (e *fp2) String() string {
	return fmt.Sprintf("(%s + %s·i)", e.c0.String(), e.c1.String())
}

// Set assigns a to e and returns e.
func (e *fp2) Set(a *fp2) *fp2 {
	*e = *a
	return e
}

// SetZero assigns 0 to e and returns e.
func (e *fp2) SetZero() *fp2 {
	*e = fp2{}
	return e
}

// SetOne assigns 1 to e and returns e.
func (e *fp2) SetOne() *fp2 {
	e.c0.SetOne()
	e.c1.SetZero()
	return e
}

// SetInts assigns c0 + c1·i (reduced mod p) to e and returns e.
func (e *fp2) SetInts(c0, c1 *big.Int) *fp2 {
	e.c0.SetBigInt(c0)
	e.c1.SetBigInt(c1)
	return e
}

// IsZero reports whether e == 0.
func (e *fp2) IsZero() bool {
	return e.c0.IsZero() && e.c1.IsZero()
}

// Equal reports whether e == a.
func (e *fp2) Equal(a *fp2) bool {
	return e.c0.Equal(&a.c0) && e.c1.Equal(&a.c1)
}

// Add sets e = a + b and returns e.
func (e *fp2) Add(a, b *fp2) *fp2 {
	fp2Add(e, a, b)
	return e
}

// Sub sets e = a - b and returns e.
func (e *fp2) Sub(a, b *fp2) *fp2 {
	fp2Sub(e, a, b)
	return e
}

// Neg sets e = -a and returns e.
func (e *fp2) Neg(a *fp2) *fp2 {
	fp2Neg(e, a)
	return e
}

// Double sets e = 2a and returns e.
func (e *fp2) Double(a *fp2) *fp2 {
	fp2Double(e, a)
	return e
}

// Mul sets e = a·b and returns e. Aliasing of e with a or b is allowed.
func (e *fp2) Mul(a, b *fp2) *fp2 {
	fp2Mul(e, a, b)
	return e
}

// MulScalar sets e = a·s where s is a base-field scalar, and returns e.
func (e *fp2) MulScalar(a *fp2, s *fp.Element) *fp2 {
	e.c0.Mul(&a.c0, s)
	e.c1.Mul(&a.c1, s)
	return e
}

// Square sets e = a² and returns e.
func (e *fp2) Square(a *fp2) *fp2 {
	fp2Square(e, a)
	return e
}

// The Go bodies of the Fp2 kernels: the portable path (fp2_other.go), the
// fallback of the amd64 Mul and Square without ADX, and the oracle of the
// fused amd64 kernels (fp2_amd64.s), which must agree with them word for
// word.

func fp2AddGeneric(e, a, b *fp2) {
	e.c0.Add(&a.c0, &b.c0)
	e.c1.Add(&a.c1, &b.c1)
}

func fp2SubGeneric(e, a, b *fp2) {
	e.c0.Sub(&a.c0, &b.c0)
	e.c1.Sub(&a.c1, &b.c1)
}

func fp2NegGeneric(e, a *fp2) {
	e.c0.Neg(&a.c0)
	e.c1.Neg(&a.c1)
}

func fp2DoubleGeneric(e, a *fp2) {
	e.c0.Double(&a.c0)
	e.c1.Double(&a.c1)
}

func fp2MulGeneric(e, a, b *fp2) {
	// Karatsuba over i² = −1: with v0 = a0b0 and v1 = a1b1,
	//   c0 = v0 − v1
	//   c1 = (a0+a1)(b0+b1) − v0 − v1
	// Three base-field multiplications instead of four. The sums a0+a1
	// and b0+b1 stay unreduced (below 2p): they only feed fp.Mul, which
	// returns a canonical product for such operands.
	var v0, v1, s, t fp.Element
	v0.Mul(&a.c0, &b.c0)
	v1.Mul(&a.c1, &b.c1)
	s.AddUnreduced(&a.c0, &a.c1)
	t.AddUnreduced(&b.c0, &b.c1)
	s.Mul(&s, &t)
	e.c0.Sub(&v0, &v1)
	s.Sub(&s, &v0)
	e.c1.Sub(&s, &v1)
}

func fp2SquareGeneric(e, a *fp2) {
	// (a0 + a1·i)² = (a0−a1)(a0+a1) + 2a0a1·i — two multiplications;
	// a0+a1 stays unreduced, as in Mul.
	var t0, t1, m fp.Element
	t0.Sub(&a.c0, &a.c1)
	t1.AddUnreduced(&a.c0, &a.c1)
	m.Mul(&a.c0, &a.c1)
	e.c0.Mul(&t0, &t1)
	e.c1.Double(&m)
}

// Conjugate sets e = conj(a) = a0 - a1·i (the p-power Frobenius on Fp2)
// and returns e.
func (e *fp2) Conjugate(a *fp2) *fp2 {
	e.c0.Set(&a.c0)
	e.c1.Neg(&a.c1)
	return e
}

// Inverse sets e = a⁻¹ and returns e. It panics on zero input, which in this
// code base is always a programmer error (line functions and field formulas
// never invert zero for valid group inputs).
func (e *fp2) Inverse(a *fp2) *fp2 {
	// (a0 + a1·i)⁻¹ = (a0 - a1·i) / (a0² + a1²)
	var t0, t1 fp.Element
	t0.Square(&a.c0)
	t1.Square(&a.c1)
	t0.Add(&t0, &t1)
	if t0.IsZero() {
		panic("bn254: inversion of zero fp2 element")
	}
	t0.Inverse(&t0)
	e.c0.Mul(&a.c0, &t0)
	t1.Neg(&a.c1)
	e.c1.Mul(&t1, &t0)
	return e
}

// Exp sets e = a^k for a non-negative exponent k and returns e. Variable
// time; used only with public exponents (Frobenius constant derivation, the
// Fp2 square-root chain).
func (e *fp2) Exp(a *fp2, k *big.Int) *fp2 {
	var res, base fp2
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
