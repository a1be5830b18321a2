package bn254

import (
	"math/big"
	"math/rand"
	"testing"
)

// Differential tests pinning the cyclotomic-subgroup kernels and the sparse
// line product to the generic Fp12 arithmetic they replace.

// cyclotomicSamples returns elements of the cyclotomic subgroup: pairing
// outputs, GTExpBase powers, and easy-part outputs of random Fp12 elements
// (which lie in the subgroup but, almost surely, outside GT).
func cyclotomicSamples(seed int64) []*fp12 {
	r := rand.New(rand.NewSource(seed))
	var out []*fp12
	for i := 0; i < 2; i++ {
		out = append(out, &Pair(randG1(r), randG2(r)).v)
	}
	for _, k := range []*big.Int{big.NewInt(1), big.NewInt(2), new(big.Int).Rand(r, Order)} {
		out = append(out, &GTExpBase(k).v)
	}
	for i := 0; i < 2; i++ {
		out = append(out, easyPart(randFp12(r)))
	}
	return out
}

func TestCyclotomicSquareMatchesSquare(t *testing.T) {
	for i, a := range cyclotomicSamples(31) {
		var want, got fp12
		want.Square(a)
		got.cyclotomicSquare(a)
		if !got.Equal(&want) {
			t.Fatalf("sample %d: cyclotomicSquare != Square", i)
		}
		got.Set(a)
		got.cyclotomicSquare(&got)
		if !got.Equal(&want) {
			t.Fatalf("sample %d: aliased cyclotomicSquare != Square", i)
		}
	}
	var one fp12
	one.SetOne()
	if !one.cyclotomicSquare(&one).IsOne() {
		t.Fatal("cyclotomicSquare(1) != 1")
	}
}

func TestExpByUMatchesExp(t *testing.T) {
	for i, a := range cyclotomicSamples(32) {
		var want, got fp12
		want.Exp(a, u)
		expByU(&got, a)
		if !got.Equal(&want) {
			t.Fatalf("sample %d: expByU != Exp(·, u)", i)
		}
	}
}

func TestWNAFRecoding(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	ks := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(7), big.NewInt(255),
		new(big.Int).Set(u),
		new(big.Int).Sub(Order, big.NewInt(1)),
		new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 254), big.NewInt(1)),
	}
	for i := 0; i < 20; i++ {
		ks = append(ks, new(big.Int).Rand(r, Order))
	}
	for w := uint(2); w <= 7; w++ {
		for _, k := range ks {
			digits := wnaf(k, w)
			sum := new(big.Int)
			last := -int(w)
			for i := len(digits) - 1; i >= 0; i-- {
				sum.Lsh(sum, 1)
				sum.Add(sum, big.NewInt(int64(digits[i])))
				d := int(digits[i])
				if d == 0 {
					continue
				}
				if d%2 == 0 || d >= 1<<(w-1) || d <= -(1<<(w-1)) {
					t.Fatalf("w=%d k=%v: digit %d out of range", w, k, d)
				}
				if last-i < int(w) && last >= 0 {
					t.Fatalf("w=%d k=%v: nonzero digits at %d and %d", w, k, last, i)
				}
				last = i
			}
			if sum.Cmp(k) != 0 {
				t.Fatalf("w=%d: digits of %v sum to %v", w, k, sum)
			}
		}
	}
}

func TestGTExpMatchesGenericExp(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	ks := []*big.Int{
		big.NewInt(0), big.NewInt(1), new(big.Int).Sub(Order, big.NewInt(1)),
		new(big.Int).Rand(r, Order), new(big.Int).Rand(r, Order),
	}
	// Random scalars with bit 253 set, so the full 254-bit length is run.
	for i := 0; i < 2; i++ {
		k := new(big.Int).Rand(r, new(big.Int).Lsh(big.NewInt(1), 253))
		ks = append(ks, k.SetBit(k, 253, 1))
	}
	bases := []*GT{GTBase(), Pair(randG1(r), randG2(r)), GTExpBase(new(big.Int).Rand(r, Order))}
	for bi, a := range bases {
		for _, k := range ks {
			var want fp12
			want.Exp(&a.v, new(big.Int).Mod(k, Order))
			var got GT
			got.Exp(a, k)
			if !got.v.Equal(&want) {
				t.Fatalf("base %d, k=%v: GT.Exp != generic Exp", bi, k)
			}
		}
	}
	// Negative exponents and aliasing.
	a := bases[1]
	var got, want GT
	got.Set(a)
	got.Exp(&got, big.NewInt(-5))
	want.Exp(a, big.NewInt(5))
	want.Inverse(&want)
	if !got.Equal(&want) {
		t.Fatal("GT.Exp(a, -5) != (a^5)^-1")
	}
}

func TestMulBy01MatchesMul(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	for i := 0; i < 20; i++ {
		a := randFp6(r)
		b := fp6{c0: *randFp2(r), c1: *randFp2(r)}
		var want, got fp6
		want.Mul(a, &b)
		got.mulBy01(a, &b.c0, &b.c1)
		if !got.Equal(&want) {
			t.Fatal("mulBy01 != Mul")
		}
		got.Set(a)
		got.mulBy01(&got, &b.c0, &b.c1)
		if !got.Equal(&want) {
			t.Fatal("aliased mulBy01 != Mul")
		}
	}
}

func TestMulByLineMatchesMul(t *testing.T) {
	r := rand.New(rand.NewSource(36))
	for i := 0; i < 20; i++ {
		f := randFp12(r)
		A, B, C := randFp2(r), randFp2(r), randFp2(r)
		var l fp12
		l.c0.c0.Set(A)
		l.c1.c0.Set(B)
		l.c1.c1.Set(C)
		var want, got fp12
		want.Mul(f, &l)
		got.mulByLine(f, A, B, C)
		if !got.Equal(&want) {
			t.Fatal("mulByLine != dense Mul")
		}
		got.Set(f)
		got.mulByLine(&got, A, B, C)
		if !got.Equal(&want) {
			t.Fatal("aliased mulByLine != dense Mul")
		}
	}
}
