package bn254

import (
	"bytes"
	"math/big"
	"testing"

	"typepre/internal/bn254/fp"
)

// Fuzz targets for the group decode surfaces. Invariants: no panics, and
// accepted inputs are canonical (re-marshal to themselves) and satisfy the
// relevant group membership.

func FuzzG1Unmarshal(f *testing.F) {
	var p G1
	p.ScalarBaseMult(big.NewInt(123456789))
	f.Add(p.Marshal())
	f.Add(make([]byte, G1Size))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		var q G1
		if err := q.Unmarshal(data); err != nil {
			return
		}
		if !q.IsOnCurve() {
			t.Fatal("accepted off-curve G1 point")
		}
		if !bytes.Equal(q.Marshal(), data) {
			t.Fatal("accepted non-canonical G1 encoding")
		}
	})
}

func FuzzG1UnmarshalCompressed(f *testing.F) {
	var p G1
	p.ScalarBaseMult(big.NewInt(987654321))
	f.Add(p.MarshalCompressed())
	f.Add(make([]byte, G1CompressedSize))
	f.Fuzz(func(t *testing.T, data []byte) {
		var q G1
		if err := q.UnmarshalCompressed(data); err != nil {
			return
		}
		if !q.IsOnCurve() {
			t.Fatal("accepted off-curve compressed G1 point")
		}
		if !bytes.Equal(q.MarshalCompressed(), data) {
			t.Fatal("accepted non-canonical compressed G1 encoding")
		}
	})
}

func FuzzG2Unmarshal(f *testing.F) {
	var p G2
	p.ScalarBaseMult(big.NewInt(42))
	f.Add(p.Marshal())
	f.Add(make([]byte, G2Size))
	f.Fuzz(func(t *testing.T, data []byte) {
		var q G2
		if err := q.Unmarshal(data); err != nil {
			return
		}
		if !q.IsOnCurve() || !q.IsInSubgroup() {
			t.Fatal("accepted invalid G2 point")
		}
		if !bytes.Equal(q.Marshal(), data) {
			t.Fatal("accepted non-canonical G2 encoding")
		}
	})
}

func FuzzGTUnmarshal(f *testing.F) {
	f.Add(GTBase().Marshal())
	f.Add(make([]byte, GTSize))
	f.Fuzz(func(t *testing.T, data []byte) {
		var g GT
		if err := g.Unmarshal(data); err != nil {
			return
		}
		if !bytes.Equal(g.Marshal(), data) {
			t.Fatal("accepted non-canonical GT encoding")
		}
	})
}

func FuzzHashToG1(f *testing.F) {
	f.Add([]byte("alice@example.com"))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x80}, 300))
	f.Fuzz(func(t *testing.T, msg []byte) {
		p := HashToG1(DomainG1, msg)
		if !p.IsOnCurve() || p.IsInfinity() {
			t.Fatal("hash produced invalid point")
		}
	})
}

// fpFromFuzz reduces an arbitrary 32-byte chunk into an Fp element and the
// matching big.Int, so differential targets exercise the full input space
// rather than only canonical encodings.
func fpFromFuzz(chunk []byte) (fp.Element, *big.Int) {
	v := new(big.Int).SetBytes(chunk)
	v.Mod(v, P)
	var e fp.Element
	e.SetBigInt(v)
	return e, v
}

// FuzzFpVsBig differentially checks the Montgomery-limb Fp core against
// math/big on the same inputs: add, sub, neg, mul, square, and inverse must
// agree, and the byte encoding must round-trip through big.Int.
func FuzzFpVsBig(f *testing.F) {
	f.Add(make([]byte, 64))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Add(append(P.Bytes(), P.Bytes()...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 64 {
			return
		}
		a, abig := fpFromFuzz(data[:32])
		b, bbig := fpFromFuzz(data[32:64])

		check := func(op string, got *fp.Element, want *big.Int) {
			if got.BigInt().Cmp(want) != 0 {
				t.Fatalf("%s mismatch: limbs %v, big %v", op, got, want)
			}
		}
		var out fp.Element
		out.Add(&a, &b)
		check("add", &out, new(big.Int).Mod(new(big.Int).Add(abig, bbig), P))
		out.Sub(&a, &b)
		check("sub", &out, new(big.Int).Mod(new(big.Int).Sub(abig, bbig), P))
		out.Neg(&a)
		check("neg", &out, new(big.Int).Mod(new(big.Int).Neg(abig), P))
		out.Mul(&a, &b)
		check("mul", &out, new(big.Int).Mod(new(big.Int).Mul(abig, bbig), P))
		out.Square(&a)
		check("square", &out, new(big.Int).Mod(new(big.Int).Mul(abig, abig), P))
		out.Inverse(&a)
		if abig.Sign() == 0 {
			check("inverse(0)", &out, new(big.Int))
		} else {
			check("inverse", &out, new(big.Int).ModInverse(abig, P))
		}

		enc := a.Bytes()
		if new(big.Int).SetBytes(enc[:]).Cmp(abig) != 0 {
			t.Fatalf("Bytes() != big-endian value: % x vs %v", enc, abig)
		}
	})
}

// FuzzFp2VsBig differentially checks the Fp2 tower layer (Karatsuba mul,
// square, inverse) against schoolbook formulas evaluated with math/big over
// Fp[i]/(i²+1).
func FuzzFp2VsBig(f *testing.F) {
	f.Add(make([]byte, 128))
	f.Add(bytes.Repeat([]byte{0xa5}, 128))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 128 {
			return
		}
		var a, b fp2
		var a0, a1, b0, b1 *big.Int
		a.c0, a0 = fpFromFuzz(data[:32])
		a.c1, a1 = fpFromFuzz(data[32:64])
		b.c0, b0 = fpFromFuzz(data[64:96])
		b.c1, b1 = fpFromFuzz(data[96:128])

		check := func(op string, got *fp2, want0, want1 *big.Int) {
			g0 := got.c0.BigInt()
			g1 := got.c1.BigInt()
			if g0.Cmp(want0) != 0 || g1.Cmp(want1) != 0 {
				t.Fatalf("%s mismatch: limbs (%v, %v), big (%v, %v)", op, g0, g1, want0, want1)
			}
		}
		// (a0 + a1·i)(b0 + b1·i) = (a0b0 − a1b1) + (a0b1 + a1b0)·i
		mul0 := new(big.Int).Sub(new(big.Int).Mul(a0, b0), new(big.Int).Mul(a1, b1))
		mul1 := new(big.Int).Add(new(big.Int).Mul(a0, b1), new(big.Int).Mul(a1, b0))
		var out fp2
		out.Mul(&a, &b)
		check("mul", &out, mul0.Mod(mul0, P), mul1.Mod(mul1, P))

		sq0 := new(big.Int).Sub(new(big.Int).Mul(a0, a0), new(big.Int).Mul(a1, a1))
		sq1 := new(big.Int).Lsh(new(big.Int).Mul(a0, a1), 1)
		out.Square(&a)
		check("square", &out, sq0.Mod(sq0, P), sq1.Mod(sq1, P))

		// 1/(a0 + a1·i) = (a0 − a1·i)/(a0² + a1²)
		norm := new(big.Int).Add(new(big.Int).Mul(a0, a0), new(big.Int).Mul(a1, a1))
		norm.Mod(norm, P)
		if norm.Sign() != 0 {
			normInv := new(big.Int).ModInverse(norm, P)
			inv0 := new(big.Int).Mul(a0, normInv)
			inv1 := new(big.Int).Mul(new(big.Int).Neg(a1), normInv)
			out.Inverse(&a)
			check("inverse", &out, inv0.Mod(inv0, P), inv1.Mod(inv1, P))
		}
	})
}

// FuzzCyclotomicVsGeneric maps the input to a GT element g = GTExpBase(k)
// with k from the first 32 bytes and to an exponent e from the rest, then
// checks the cyclotomic kernels against the generic Fp12 ones:
// cyclotomicSquare against Square, expByU against Exp(·, u), and GT.Exp
// against Exp(·, e mod r).
func FuzzCyclotomicVsGeneric(f *testing.F) {
	f.Add(make([]byte, 64))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Add(append(Order.Bytes(), new(big.Int).Sub(Order, big.NewInt(1)).Bytes()...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 32 {
			return
		}
		k := new(big.Int).SetBytes(data[:32])
		e := new(big.Int).SetBytes(data[32:])
		g := GTExpBase(k)

		var want, got fp12
		want.Square(&g.v)
		got.cyclotomicSquare(&g.v)
		if !got.Equal(&want) {
			t.Fatalf("cyclotomicSquare != Square for k=%v", k)
		}
		want.Exp(&g.v, u)
		expByU(&got, &g.v)
		if !got.Equal(&want) {
			t.Fatalf("expByU != Exp(·, u) for k=%v", k)
		}
		want.Exp(&g.v, new(big.Int).Mod(e, Order))
		var h GT
		h.Exp(g, e)
		if !h.v.Equal(&want) {
			t.Fatalf("GT.Exp != generic Exp for k=%v, e=%v", k, e)
		}
	})
}

func FuzzHashToZr(f *testing.F) {
	f.Add([]byte("type"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, msg []byte) {
		k := HashToZr(DomainZr, msg)
		if k.Sign() <= 0 || k.Cmp(Order) >= 0 {
			t.Fatal("hash out of Z*_r range")
		}
	})
}
