package bn254

import (
	"errors"
	"fmt"
	"math/big"

	"typepre/internal/bn254/fp"
)

// GT is an element of the order-r multiplicative subgroup of Fp12*, the
// target group of the pairing. Elements returned by Pair, GT.Mul, GT.Exp
// etc. are always in the subgroup; Unmarshal verifies field membership
// only, not subgroup membership.
type GT struct {
	v fp12
}

// Set assigns a to g and returns g.
func (g *GT) Set(a *GT) *GT {
	g.v.Set(&a.v)
	return g
}

// Equal reports whether g == a.
func (g *GT) Equal(a *GT) bool { return g.v.Equal(&a.v) }

// Mul sets g = a·b and returns g.
func (g *GT) Mul(a, b *GT) *GT {
	g.v.Mul(&a.v, &b.v)
	return g
}

// Div sets g = a/b and returns g.
func (g *GT) Div(a, b *GT) *GT {
	var inv fp12
	inv.Inverse(&b.v)
	g.v.Mul(&a.v, &inv)
	return g
}

// Exp sets g = a^k (k taken mod r; negative k uses the inverse) and
// returns g. It splits k into four 64-bit components over the Frobenius
// (split.go) and runs one width-4 signed-window multi-exponentiation on
// cyclotomic squarings over a, a^p, a^(p²) and a^(p³). Both steps are
// exact only because a is in GT, where the Frobenius is the power λ: for
// an Unmarshal'ed value outside GT the result is unspecified.
func (g *GT) Exp(a *GT, k *big.Int) *GT {
	var buf [4][1 << (gtExpWindow - 2)]fp12
	tabs := [][]fp12{buf[0][:], buf[1][:], buf[2][:], buf[3][:]}
	oddPowers(tabs[0], &a.v)
	frobeniusTables(tabs)
	g.v.cyclotomicMultiExp(tabs, split4.digits(k, gtExpWindow))
	return g
}

// GTSize is the marshaled size of a GT element in bytes.
const GTSize = 12 * 32

// Marshal encodes g as 384 bytes: the twelve Fp coefficients in tower order
// (c0.c0.c0, c0.c0.c1, c0.c1.c0, ..., c1.c2.c1), each 32 bytes big-endian.
func (g *GT) Marshal() []byte {
	out := make([]byte, GTSize)
	g.MarshalTo((*[GTSize]byte)(out))
	return out
}

// MarshalTo writes Marshal's encoding of g to out, allocating nothing.
func (g *GT) MarshalTo(out *[GTSize]byte) {
	for i, c := range g.coeffs() {
		b := c.Bytes()
		copy(out[i*32:(i+1)*32], b[:])
	}
}

// LimbsTo writes g's coefficients as held in memory, canonical Montgomery
// limbs, little-endian, to out: like G2.LimbsTo, bytes that identify g
// exactly and that nothing decodes.
func (g *GT) LimbsTo(out *[GTSize]byte) {
	for i, c := range g.coeffs() {
		putLimbs(out[i*32:(i+1)*32], c)
	}
}

func (g *GT) coeffs() [12]*fp.Element {
	return [12]*fp.Element{
		&g.v.c0.c0.c0, &g.v.c0.c0.c1,
		&g.v.c0.c1.c0, &g.v.c0.c1.c1,
		&g.v.c0.c2.c0, &g.v.c0.c2.c1,
		&g.v.c1.c0.c0, &g.v.c1.c0.c1,
		&g.v.c1.c1.c0, &g.v.c1.c1.c1,
		&g.v.c1.c2.c0, &g.v.c1.c2.c1,
	}
}

// Unmarshal decodes an element previously produced by Marshal, verifying
// that every coefficient is a canonical field element.
func (g *GT) Unmarshal(data []byte) error {
	if len(data) != GTSize {
		return fmt.Errorf("bn254: invalid GT encoding length %d", len(data))
	}
	for i, c := range g.coeffs() {
		if !c.SetBytes(data[i*32 : (i+1)*32]) {
			return errors.New("bn254: GT coefficient out of range")
		}
	}
	return nil
}
