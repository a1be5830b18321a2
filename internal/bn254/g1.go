package bn254

import (
	"errors"
	"fmt"
	"math/big"

	"typepre/internal/bn254/fp"
)

// G1 is a point on E: y² = x³ + 3 over Fp, in affine coordinates, or the
// point at infinity when inf is set. The group has prime order r and
// cofactor 1. The zero value is the point at infinity.
type G1 struct {
	x, y fp.Element
	inf  bool
}

// g1Gen is the conventional generator (1, 2).
var g1Gen G1

// G1Generator returns a copy of the fixed generator of G1.
func G1Generator() *G1 {
	var g G1
	g.Set(&g1Gen)
	return &g
}

// G1Infinity returns the identity element of G1.
func G1Infinity() *G1 { return &G1{inf: true} }

// Set assigns a to p and returns p.
func (p *G1) Set(a *G1) *G1 {
	*p = *a
	return p
}

// IsInfinity reports whether p is the identity.
func (p *G1) IsInfinity() bool { return p.inf }

// Equal reports whether p == q.
func (p *G1) Equal(q *G1) bool {
	if p.inf || q.inf {
		return p.inf == q.inf
	}
	return p.x.Equal(&q.x) && p.y.Equal(&q.y)
}

// IsOnCurve reports whether p satisfies the curve equation (infinity counts
// as on-curve).
func (p *G1) IsOnCurve() bool {
	if p.inf {
		return true
	}
	var lhs, rhs fp.Element
	lhs.Square(&p.y)
	rhs.Square(&p.x)
	rhs.Mul(&rhs, &p.x)
	rhs.Add(&rhs, &curveB)
	return lhs.Equal(&rhs)
}

// Neg sets p = -a and returns p.
func (p *G1) Neg(a *G1) *G1 {
	if a.inf {
		p.inf = true
		return p
	}
	p.x.Set(&a.x)
	p.y.Neg(&a.y)
	p.inf = false
	return p
}

// Double sets p = 2a and returns p.
func (p *G1) Double(a *G1) *G1 {
	if a.inf || a.y.IsZero() {
		p.inf = true
		return p
	}
	// λ = 3x²/(2y); x' = λ² - 2x; y' = λ(x - x') - y
	var lam, t, x3, y3 fp.Element
	lam.Square(&a.x)
	t.Double(&lam)
	lam.Add(&lam, &t)
	t.Double(&a.y)
	t.Inverse(&t)
	lam.Mul(&lam, &t)

	x3.Square(&lam)
	t.Double(&a.x)
	x3.Sub(&x3, &t)

	y3.Sub(&a.x, &x3)
	y3.Mul(&y3, &lam)
	y3.Sub(&y3, &a.y)

	p.x.Set(&x3)
	p.y.Set(&y3)
	p.inf = false
	return p
}

// Add sets p = a + b and returns p. Aliasing is allowed.
func (p *G1) Add(a, b *G1) *G1 {
	if a.inf {
		return p.Set(b)
	}
	if b.inf {
		return p.Set(a)
	}
	if a.x.Equal(&b.x) {
		if a.y.Equal(&b.y) {
			return p.Double(a)
		}
		p.inf = true
		return p
	}
	// λ = (y2-y1)/(x2-x1); x' = λ² - x1 - x2; y' = λ(x1 - x') - y1
	var lam, t, x3, y3 fp.Element
	lam.Sub(&b.y, &a.y)
	t.Sub(&b.x, &a.x)
	t.Inverse(&t)
	lam.Mul(&lam, &t)

	x3.Square(&lam)
	x3.Sub(&x3, &a.x)
	x3.Sub(&x3, &b.x)

	y3.Sub(&a.x, &x3)
	y3.Mul(&y3, &lam)
	y3.Sub(&y3, &a.y)

	p.x.Set(&x3)
	p.y.Set(&y3)
	p.inf = false
	return p
}

// ScalarMult sets p = k·a (k taken mod r) and returns p. It splits k into
// two 126-bit components over φ(x, y) = (βx, y) (split.go) and runs one
// width-4 signed-window double-scalar multiplication over a and φ(a) in
// Jacobian coordinates. G1 has cofactor 1, so every on-curve a is in the
// subgroup where φ is the multiplication by λ₁. The Jacobian and affine
// ladders in reference_test.go are its property-tested references.
func (p *G1) ScalarMult(a *G1, k *big.Int) *G1 {
	if a.inf {
		return p.Set(a)
	}
	var buf [2][1 << (g1MulWindow - 2)]g1Jac
	buf[0][0].fromAffine(a)
	twice := buf[0][0]
	twice.double()
	for i := 1; i < len(buf[0]); i++ {
		buf[0][i] = buf[0][i-1]
		buf[0][i].add(&twice)
	}
	for i := range buf[1] {
		buf[1][i] = buf[0][i]
		buf[1][i].x.Mul(&buf[1][i].x, &betaG1)
	}
	return g1MultiMul(p, [][]g1Jac{buf[0][:], buf[1][:]}, split2.digits(k, g1MulWindow))
}

// ScalarBaseMult sets p = k·G where G is the fixed generator, and returns
// p. It is ScalarMult on G, with no table kept; tests pin it to the
// generic ladder (scalarBaseMultGeneric).
func (p *G1) ScalarBaseMult(k *big.Int) *G1 {
	return p.ScalarMult(&g1Gen, k)
}

// g1ElementSize is the marshaled size of one coordinate in bytes.
const g1ElementSize = 32

// G1Size is the marshaled size of a G1 point in bytes.
const G1Size = 2 * g1ElementSize

// Marshal encodes p as 64 bytes (x‖y, big-endian, 32 bytes each). The point
// at infinity encodes as all zeros.
func (p *G1) Marshal() []byte {
	out := make([]byte, G1Size)
	if p.inf {
		return out
	}
	xb := p.x.Bytes()
	yb := p.y.Bytes()
	copy(out[:g1ElementSize], xb[:])
	copy(out[g1ElementSize:], yb[:])
	return out
}

// Unmarshal decodes a point previously produced by Marshal, verifying that
// it lies on the curve.
func (p *G1) Unmarshal(data []byte) error {
	if len(data) != G1Size {
		return fmt.Errorf("bn254: invalid G1 encoding length %d", len(data))
	}
	allZero := true
	for _, b := range data {
		if b != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		p.inf = true
		p.x.SetZero()
		p.y.SetZero()
		return nil
	}
	if !p.x.SetBytes(data[:g1ElementSize]) || !p.y.SetBytes(data[g1ElementSize:]) {
		return errors.New("bn254: G1 coordinate out of range")
	}
	p.inf = false
	if !p.IsOnCurve() {
		return errors.New("bn254: G1 point not on curve")
	}
	return nil
}

func (p *G1) String() string {
	if p.inf {
		return "G1(∞)"
	}
	return fmt.Sprintf("G1(%s, %s)", p.x.String(), p.y.String())
}
