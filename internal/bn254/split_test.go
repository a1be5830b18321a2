package bn254

import (
	"math/big"
	"math/rand"
	"testing"
	"unsafe"
)

// Tests of the endomorphism split (split.go): the lattices and their
// rounding constants, the decomposition bound, the eigenvalues the split
// rests on, and the split paths against the ladders and the old window
// tables of reference_test.go.

// lambdaG1 is the power by which φ acts on G1, a root of λ² + λ + 1
// modulo r. (λ itself is split.go's lambda.)
var lambdaG1 = uPoly(1, 6, 18, 36)

// splitCases pairs each lattice with its λ and the bound on |kᵢ| that
// docs/bn254.md derives: half the largest column sum of |basis|.
var splitCases = []struct {
	name   string
	l      *splitLattice
	lambda *big.Int
	bits   int // |kᵢ| < 2^bits
}{
	{"split4", &split4, lambda, 64},
	{"split2", &split2, lambdaG1, 126},
}

// splitScalars are the decomposition edge cases: 0, 1, r−1, r, r+1,
// 2²⁵⁶−1, negative k, and random k.
func splitScalars() []*big.Int {
	ks := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		new(big.Int).Sub(Order, big.NewInt(1)),
		new(big.Int).Set(Order),
		new(big.Int).Add(Order, big.NewInt(1)),
		new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1)),
		big.NewInt(-1),
		new(big.Int).Neg(new(big.Int).Add(Order, big.NewInt(5))),
		new(big.Int).Set(lambda),
		new(big.Int).Set(lambdaG1),
	}
	r := rand.New(rand.NewSource(61))
	for i := 0; i < 200; i++ {
		k := new(big.Int).Rand(r, Order)
		if i%2 == 1 {
			k.Neg(k)
		}
		ks = append(ks, k)
	}
	return ks
}

// TestSplitLattices checks each basis and its rounding numerators: every
// row lies in the lattice {v : Σ vᵢλⁱ ≡ 0 (mod r)}, the determinant is ±r
// (so the rows span the whole lattice), λ is a root of its minimal
// polynomial mod r, and α·B = (r, 0, …, 0), i.e. α/r is the first row of
// B⁻¹.
func TestSplitLattices(t *testing.T) {
	if new(big.Int).Mod(P, Order).Cmp(lambda) != 0 {
		t.Fatal("λ != p mod r")
	}
	l2 := new(big.Int).Mul(lambda, lambda)
	if v := new(big.Int).Mul(l2, l2); v.Sub(v, l2).Add(v, big.NewInt(1)).Mod(v, Order).Sign() != 0 {
		t.Fatal("λ⁴ − λ² + 1 != 0 mod r")
	}
	if v := new(big.Int).Mul(lambdaG1, lambdaG1); v.Add(v, lambdaG1).Add(v, big.NewInt(1)).Mod(v, Order).Sign() != 0 {
		t.Fatal("λ₁² + λ₁ + 1 != 0 mod r")
	}
	for _, c := range splitCases {
		n := len(c.l.round)
		for j, row := range c.l.basis {
			if len(row) != n {
				t.Fatalf("%s: row %d has %d entries", c.name, j, len(row))
			}
			if eval(row, c.lambda).Sign() != 0 {
				t.Fatalf("%s: row %d is not in the lattice", c.name, j)
			}
		}
		if d := det(c.l.basis); new(big.Int).Abs(d).Cmp(Order) != 0 {
			t.Fatalf("%s: det = %v, want ±r", c.name, d)
		}
		for i := 0; i < n; i++ {
			s := new(big.Int)
			for j := 0; j < n; j++ {
				s.Add(s, new(big.Int).Mul(c.l.round[j], c.l.basis[j][i]))
			}
			want := big.NewInt(0)
			if i == 0 {
				want = Order
			}
			if s.Cmp(want) != 0 {
				t.Fatalf("%s: (α·B)[%d] = %v, want %v", c.name, i, s, want)
			}
		}
	}
}

// eval returns Σ vᵢλⁱ mod r.
func eval(v []*big.Int, lam *big.Int) *big.Int {
	s, pow := new(big.Int), big.NewInt(1)
	for _, c := range v {
		s.Add(s, new(big.Int).Mul(c, pow))
		pow = new(big.Int).Mul(pow, lam)
	}
	return s.Mod(s, Order)
}

// det returns the determinant of a square matrix by cofactor expansion.
func det(m [][]*big.Int) *big.Int {
	if len(m) == 1 {
		return new(big.Int).Set(m[0][0])
	}
	d := new(big.Int)
	for j := range m[0] {
		var minor [][]*big.Int
		for _, row := range m[1:] {
			var r []*big.Int
			r = append(r, row[:j]...)
			r = append(r, row[j+1:]...)
			minor = append(minor, r)
		}
		t := new(big.Int).Mul(m[0][j], det(minor))
		if j%2 == 1 {
			t.Neg(t)
		}
		d.Add(d, t)
	}
	return d
}

// TestSplitDecomposition checks that the components recombine to k mod r
// and stay inside the bound, and that the signed digits recombine to the
// components.
func TestSplitDecomposition(t *testing.T) {
	for _, c := range splitCases {
		bound := new(big.Int).Lsh(big.NewInt(1), uint(c.bits))
		for _, k := range splitScalars() {
			comps := c.l.split(k)
			want := new(big.Int).Mod(k, Order)
			if got := eval(comps, c.lambda); got.Cmp(want) != 0 {
				t.Fatalf("%s k=%v: components recombine to %v", c.name, k, got)
			}
			for i, ki := range comps {
				if new(big.Int).Abs(ki).Cmp(bound) >= 0 {
					t.Fatalf("%s k=%v: |k%d| = %v ≥ 2^%d", c.name, k, i, ki, c.bits)
				}
			}
			for i, d := range c.l.digits(k, 5) {
				if recombine(d).Cmp(comps[i]) != 0 {
					t.Fatalf("%s k=%v: digits of k%d do not recombine", c.name, k, i)
				}
			}
		}
	}
}

// TestEndomorphismEigenvalues checks the three facts the split rests on,
// each against a ladder that does not use it.
func TestEndomorphismEigenvalues(t *testing.T) {
	base := GTBase()
	var frob, pow fp12
	frob.Frobenius(&base.v)
	pow.expBinary(&base.v, lambda)
	if !frob.Equal(&pow) {
		t.Fatal("Frobenius(GTBase) != GTBase^λ")
	}

	var psi, mul G2
	psi.frobeniusTwist(&g2Gen)
	scalarMultJacobianG2(&mul, &g2Gen, lambda)
	if !psi.Equal(&mul) {
		t.Fatal("ψ(G2gen) != [λ]G2gen")
	}

	phi := g1Gen
	phi.x.Mul(&phi.x, &betaG1)
	var mul1 G1
	scalarMultJacobianG1(&mul1, &g1Gen, lambdaG1)
	if !phi.Equal(&mul1) {
		t.Fatal("φ(G1gen) != [λ₁]G1gen")
	}
}

// TestSplitMatchesWindowTables pins the split paths to the 960-entry
// window tables they replaced, on edge and random scalars.
func TestSplitMatchesWindowTables(t *testing.T) {
	gt := newGTWindowTable(&GTBase().v)
	g2 := newG2WindowTable(&g2Gen)
	g1 := newG1WindowTable(&g1Gen)
	for _, k := range testScalars(62, 4) {
		var wantGT fp12
		if !GTExpBase(k).v.Equal(gt.exp(&wantGT, k)) {
			t.Fatalf("k=%v: GTExpBase != window table", k)
		}
		var got2, want2 G2
		if !got2.ScalarBaseMult(k).Equal(g2.mul(&want2, k)) {
			t.Fatalf("k=%v: G2.ScalarBaseMult != window table", k)
		}
		var got1, want1 G1
		if !got1.ScalarBaseMult(k).Equal(g1.mul(&want1, k)) {
			t.Fatalf("k=%v: G1.ScalarBaseMult != window table", k)
		}
	}
}

// TestG1ScalarMultAliasing checks that G1.ScalarMult may write over its
// input.
func TestG1ScalarMultAliasing(t *testing.T) {
	k := big.NewInt(-123456789)
	var p, want G1
	p.ScalarBaseMult(big.NewInt(77))
	want.ScalarMult(&p, k)
	if p.ScalarMult(&p, k); !p.Equal(&want) {
		t.Fatal("aliased G1.ScalarMult differs")
	}
}

// TestFixedTablesSize pins the total size of the tables precompute.go
// builds, so that a half-megabyte window table cannot come back unnoticed.
func TestFixedTablesSize(t *testing.T) {
	const limit = 64 << 10
	size := unsafe.Sizeof(gtBaseTable{}) + unsafe.Sizeof(g2BaseTable{})
	if size > limit {
		t.Fatalf("fixed-base tables take %d bytes, more than %d", size, limit)
	}
	t.Logf("fixed-base tables: %d bytes", size)
}

// fuzzScalar reads a signed scalar: the bytes as a big-endian magnitude,
// negated when the first byte is odd.
func fuzzScalar(data []byte) *big.Int {
	k := new(big.Int).SetBytes(data)
	if len(data) > 0 && data[0]&1 == 1 {
		k.Neg(k)
	}
	return k
}

// fuzzSeeds adds the decomposition edge cases as 33-byte seed inputs, a
// base selector byte followed by a 32-byte scalar.
func fuzzSeeds(f *testing.F) {
	f.Add(make([]byte, 33))
	for _, k := range []*big.Int{
		big.NewInt(1),
		new(big.Int).Sub(Order, big.NewInt(1)),
		Order,
		new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1)),
	} {
		buf := make([]byte, 33)
		k.FillBytes(buf[1:])
		buf[0] = 7
		f.Add(buf)
	}
}

// FuzzGTExpVsLadder checks GT.Exp on a base GTBase^a, a from the first
// byte, and GTExpBase against square-and-multiply over k mod r.
func FuzzGTExpVsLadder(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		k := fuzzScalar(data[1:])
		kk := new(big.Int).Mod(k, Order)
		var base GT
		base.v.expBinary(&GTBase().v, big.NewInt(int64(data[0])+1))
		var want fp12
		want.expBinary(&base.v, kk)
		var got GT
		if got.Exp(&base, k); !got.v.Equal(&want) {
			t.Fatalf("GT.Exp != ladder for a=%d, k=%v", data[0], k)
		}
		want.expBinary(&GTBase().v, kk)
		if !GTExpBase(k).v.Equal(&want) {
			t.Fatalf("GTExpBase != ladder for k=%v", k)
		}
	})
}

// FuzzG2BaseMultVsLadder checks G2.ScalarBaseMult against the Jacobian
// ladder over k mod r.
func FuzzG2BaseMultVsLadder(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		k := fuzzScalar(data)
		var got, want G2
		got.ScalarBaseMult(k)
		scalarMultJacobianG2(&want, &g2Gen, k)
		if !got.Equal(&want) {
			t.Fatalf("G2.ScalarBaseMult != ladder for k=%v", k)
		}
	})
}

// FuzzG1MulVsLadder checks G1.ScalarMult on a base a·G1gen, a from the
// first byte, and G1.ScalarBaseMult against the Jacobian ladder.
func FuzzG1MulVsLadder(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		k := fuzzScalar(data[1:])
		var base, got, want G1
		scalarMultJacobianG1(&base, &g1Gen, big.NewInt(int64(data[0])))
		got.ScalarMult(&base, k)
		scalarMultJacobianG1(&want, &base, k)
		if !got.Equal(&want) {
			t.Fatalf("G1.ScalarMult != ladder for a=%d, k=%v", data[0], k)
		}
		got.ScalarBaseMult(k)
		scalarMultJacobianG1(&want, &g1Gen, k)
		if !got.Equal(&want) {
			t.Fatalf("G1.ScalarBaseMult != ladder for k=%v", k)
		}
	})
}
