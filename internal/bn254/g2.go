package bn254

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"

	"typepre/internal/bn254/fp"
)

// G2 is a point on the sextic twist E': y² = x³ + 3/ξ over Fp2, in affine
// coordinates, or the point at infinity when inf is set. Points produced by
// this package lie in the order-r subgroup. The zero value is the point at
// infinity.
type G2 struct {
	x, y fp2
	inf  bool
}

// g2Gen is the conventional alt_bn128 G2 subgroup generator.
var g2Gen G2

func initGenerators() {
	g1Gen.x.SetUint64(1)
	g1Gen.y.SetUint64(2)
	g1Gen.inf = false
	if !g1Gen.IsOnCurve() {
		panic("bn254: G1 generator not on curve")
	}

	parse := func(s string) *big.Int {
		v, ok := new(big.Int).SetString(s, 10)
		if !ok {
			panic("bn254: bad generator constant")
		}
		return v
	}
	g2Gen.x.SetInts(
		parse("10857046999023057135944570762232829481370756359578518086990519993285655852781"),
		parse("11559732032986387107991004021392285783925812861821192530917403151452391805634"))
	g2Gen.y.SetInts(
		parse("8495653923123431417604973247489272438418190587263600148770280649306958101930"),
		parse("4082367875863433681332203403145435568316851327593401208105741076214120093531"))
	g2Gen.inf = false
	if !g2Gen.IsOnCurve() {
		panic("bn254: G2 generator not on twist curve")
	}
	if !psiIsLambda(&g2Gen) {
		panic("bn254: G2 generator is not in the order-r subgroup")
	}
}

// psiIsLambda reports whether ψ(q) = [λ]q with λ = 6u², the eigenvalue
// relation that holds on the order-r subgroup of the twist and, for BN
// curves, nowhere else on it (Scott, "A note on group membership tests
// for G1, G2 and GT on BLS pairing-friendly curves", ePrint 2021/1130).
// It checks the generator at init; [r]q = ∞ cannot, since ScalarMult
// reduces r to 0 first and returns ∞ for every point.
func psiIsLambda(q *G2) bool {
	var psi, mul G2
	psi.frobeniusTwist(q)
	scalarMultJacobianG2(&mul, q, lambda) // λ < r: the reduction is moot
	return psi.Equal(&mul)
}

// G2Generator returns a copy of the fixed generator of G2.
func G2Generator() *G2 {
	var g G2
	g.Set(&g2Gen)
	return &g
}

// G2Infinity returns the identity element of G2.
func G2Infinity() *G2 { return &G2{inf: true} }

// Set assigns a to p and returns p.
func (p *G2) Set(a *G2) *G2 {
	*p = *a
	return p
}

// IsInfinity reports whether p is the identity.
func (p *G2) IsInfinity() bool { return p.inf }

// Equal reports whether p == q.
func (p *G2) Equal(q *G2) bool {
	if p.inf || q.inf {
		return p.inf == q.inf
	}
	return p.x.Equal(&q.x) && p.y.Equal(&q.y)
}

// IsOnCurve reports whether p satisfies the twist equation (infinity counts
// as on-curve). It does not check subgroup membership; see IsInSubgroup.
func (p *G2) IsOnCurve() bool {
	if p.inf {
		return true
	}
	var lhs, rhs fp2
	lhs.Square(&p.y)
	rhs.Square(&p.x)
	rhs.Mul(&rhs, &p.x)
	rhs.Add(&rhs, &twistB)
	return lhs.Equal(&rhs)
}

// IsInSubgroup reports whether p lies in the order-r subgroup of the twist.
func (p *G2) IsInSubgroup() bool {
	if !p.IsOnCurve() {
		return false
	}
	var t G2
	t.ScalarMult(p, Order)
	return t.inf
}

// Neg sets p = -a and returns p.
func (p *G2) Neg(a *G2) *G2 {
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
func (p *G2) Double(a *G2) *G2 {
	if a.inf || a.y.IsZero() {
		p.inf = true
		return p
	}
	var lam, t, x3, y3 fp2
	// λ = 3x²/(2y)
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
func (p *G2) Add(a, b *G2) *G2 {
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
	var lam, t, x3, y3 fp2
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

// ScalarMult sets p = k·a (k taken mod r) and returns p. On limb-based
// field arithmetic a constant-time-ish Fp2 inversion costs hundreds of
// base-field multiplications, so the Jacobian ladder (which trades the
// per-step inversion for ~12 extra Fp2 multiplications) wins decisively —
// the reverse of the old math/big trade-off. The affine ladder
// scalarMultAffine in reference_test.go is the property-tested reference.
//
// It stays a ladder over all of k, not the endomorphism split of
// ScalarBaseMult: the split is exact only for a in the order-r subgroup,
// and IsInSubgroup and the generator check at init call ScalarMult on
// exactly the points not yet known to be there (docs/bn254.md,
// "Endomorphism split").
func (p *G2) ScalarMult(a *G2, k *big.Int) *G2 {
	return scalarMultJacobianG2(p, a, k)
}

// ScalarBaseMult sets p = k·G where G is the fixed generator, and returns
// p. It splits k into four 64-bit components over ψ (split.go) and runs
// one width-7 signed-window multi-scalar multiplication over G, ψ(G),
// ψ²(G) and ψ³(G) on the lazily built tables of precompute.go; tests pin
// it to the generic ladder (scalarBaseMultGeneric).
func (p *G2) ScalarBaseMult(k *big.Int) *G2 {
	return g2MultiMul(p, g2GeneratorTables(), split4.digits(k, g2BaseWindow))
}

// frobeniusTwist sets p = π(a), the p-power Frobenius endomorphism carried
// to the twist: π(x, y) = (conj(x)·ξ^((p-1)/3), conj(y)·ξ^((p-1)/2)).
func (p *G2) frobeniusTwist(a *G2) *G2 {
	if a.inf {
		p.inf = true
		return p
	}
	p.x.Conjugate(&a.x)
	p.x.Mul(&p.x, &xiToPMinus1Over3)
	p.y.Conjugate(&a.y)
	p.y.Mul(&p.y, &xiToPMinus1Over2)
	p.inf = false
	return p
}

// G2Size is the marshaled size of a G2 point in bytes.
const G2Size = 4 * g1ElementSize

// Marshal encodes p as 128 bytes (x.c0‖x.c1‖y.c0‖y.c1, big-endian). The
// point at infinity encodes as all zeros.
func (p *G2) Marshal() []byte {
	var out [G2Size]byte
	p.MarshalTo(&out)
	return out[:]
}

// MarshalTo writes Marshal's encoding of p to out, allocating nothing.
func (p *G2) MarshalTo(out *[G2Size]byte) {
	if p.inf {
		*out = [G2Size]byte{}
		return
	}
	for i, c := range [...]*fp.Element{&p.x.c0, &p.x.c1, &p.y.c0, &p.y.c1} {
		b := c.Bytes()
		copy(out[i*32:(i+1)*32], b[:])
	}
}

// LimbsTo writes p's coordinates as held in memory, canonical Montgomery
// limbs, little-endian, to out; the point at infinity writes zeros. Equal
// points write equal bytes and distinct points distinct ones, so the bytes
// identify p exactly, without Marshal's conversion out of Montgomery form.
// They are not an encoding: nothing decodes them.
func (p *G2) LimbsTo(out *[G2Size]byte) {
	if p.inf {
		*out = [G2Size]byte{}
		return
	}
	for i, c := range [...]*fp.Element{&p.x.c0, &p.x.c1, &p.y.c0, &p.y.c1} {
		putLimbs(out[i*32:(i+1)*32], c)
	}
}

// putLimbs writes e's four limbs little-endian to out[:32].
func putLimbs(out []byte, e *fp.Element) {
	for j, l := range e {
		binary.LittleEndian.PutUint64(out[8*j:], l)
	}
}

// Unmarshal decodes a point previously produced by Marshal, verifying the
// twist equation and order-r subgroup membership.
func (p *G2) Unmarshal(data []byte) error {
	if len(data) != G2Size {
		return fmt.Errorf("bn254: invalid G2 encoding length %d", len(data))
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
	for i, c := range []*fp.Element{&p.x.c0, &p.x.c1, &p.y.c0, &p.y.c1} {
		if !c.SetBytes(data[i*32 : (i+1)*32]) {
			return errors.New("bn254: G2 coordinate out of range")
		}
	}
	p.inf = false
	if !p.IsOnCurve() {
		return errors.New("bn254: G2 point not on twist curve")
	}
	if !p.IsInSubgroup() {
		return errors.New("bn254: G2 point not in order-r subgroup")
	}
	return nil
}

func (p *G2) String() string {
	if p.inf {
		return "G2(∞)"
	}
	return fmt.Sprintf("G2(%s, %s)", p.x.String(), p.y.String())
}
