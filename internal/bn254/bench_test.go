package bn254

import (
	"math/big"
	"math/rand"
	"testing"
)

// In-package micro-benchmarks for the arithmetic layers, including the
// ablation pairs (affine vs Jacobian ladders, binary vs windowed
// exponentiation, endomorphism split vs ladder and window tables) that back
// the E1 table's design-choice discussion.

func benchScalar() *big.Int {
	r := rand.New(rand.NewSource(99))
	return new(big.Int).Rand(r, Order)
}

func BenchmarkFp2Mul(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x, y := randFp2(r), randFp2(r)
	var out fp2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Mul(x, y)
	}
}

func BenchmarkFp2Square(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x := randFp2(r)
	var out fp2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Square(x)
	}
}

func BenchmarkFp2Add(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x, y := randFp2(r), randFp2(r)
	var out fp2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Add(x, y)
	}
}

func BenchmarkMulByXi(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x := randFp2(r)
	var out fp2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mulByXi(&out, x)
	}
}

func BenchmarkFp2Inverse(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	x := randFp2(r)
	var out fp2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Inverse(x)
	}
}

func BenchmarkFp6Mul(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	x, y := randFp6(r), randFp6(r)
	var out fp6
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Mul(x, y)
	}
}

func BenchmarkFp12Mul(b *testing.B) {
	r := rand.New(rand.NewSource(4))
	x, y := randFp12(r), randFp12(r)
	var out fp12
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Mul(x, y)
	}
}

func BenchmarkFp12Square(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	x := randFp12(r)
	var out fp12
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Square(x)
	}
}

func BenchmarkFp12CyclotomicSquare(b *testing.B) {
	x := GTExpBase(benchScalar()).v
	var out fp12
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.cyclotomicSquare(&x)
	}
}

func BenchmarkMulByLine(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	x := randFp12(r)
	A, B, C := randFp2(r), randFp2(r), randFp2(r)
	var out fp12
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.mulByLine(x, A, B, C)
	}
}

func BenchmarkFp12Inverse(b *testing.B) {
	r := rand.New(rand.NewSource(6))
	x := randFp12(r)
	var out fp12
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Inverse(x)
	}
}

func BenchmarkG1ScalarMultJacobian(b *testing.B) {
	k := benchScalar()
	var out G1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scalarMultJacobianG1(&out, &g1Gen, k)
	}
}

func BenchmarkG1ScalarMultAffine(b *testing.B) {
	k := benchScalar()
	var out G1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.scalarMultAffine(&g1Gen, k)
	}
}

func BenchmarkG2ScalarMultJacobian(b *testing.B) {
	k := benchScalar()
	var out G2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scalarMultJacobianG2(&out, &g2Gen, k)
	}
}

func BenchmarkG2ScalarMultAffine(b *testing.B) {
	k := benchScalar()
	var out G2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.scalarMultAffine(&g2Gen, k)
	}
}

func BenchmarkFp12ExpWindowed(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	x := randFp12(r)
	k := benchScalar()
	var out fp12
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Exp(x, k)
	}
}

func BenchmarkFp12ExpBinary(b *testing.B) {
	r := rand.New(rand.NewSource(8))
	x := randFp12(r)
	k := benchScalar()
	var out fp12
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.expBinary(x, k)
	}
}

func BenchmarkMillerLoop(b *testing.B) {
	p := G1Generator()
	q := G2Generator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		millerLoop(p, q)
	}
}

func BenchmarkFinalExponentiation(b *testing.B) {
	f := millerLoop(G1Generator(), G2Generator())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		finalExponentiation(f)
	}
}

func BenchmarkG1Compress(b *testing.B) {
	var p G1
	p.ScalarBaseMult(benchScalar())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.MarshalCompressed()
	}
}

func BenchmarkG1Decompress(b *testing.B) {
	var p G1
	p.ScalarBaseMult(benchScalar())
	data := p.MarshalCompressed()
	var out G1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := out.UnmarshalCompressed(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkG2Decompress(b *testing.B) {
	var p G2
	p.ScalarBaseMult(benchScalar())
	data := p.MarshalCompressed()
	var out G2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := out.UnmarshalCompressed(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPair measures the full optimal-ate pairing: Miller loop plus
// final exponentiation. This is the headline number tracked in
// BENCH_bn254.json.
func BenchmarkPair(b *testing.B) {
	p := G1Generator()
	q := G2Generator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Pair(p, q)
	}
}

func BenchmarkG1ScalarMult(b *testing.B) {
	k := benchScalar()
	base := HashToG1(DomainG1, []byte("bench"))
	var out G1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.ScalarMult(base, k)
	}
}

func BenchmarkG1ScalarBaseMult(b *testing.B) {
	k := benchScalar()
	var out G1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.ScalarBaseMult(k)
	}
}

func BenchmarkG2ScalarBaseMult(b *testing.B) {
	k := benchScalar()
	var out G2
	out.ScalarBaseMult(k) // force the table build out of the timed region
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.ScalarBaseMult(k)
	}
}

func BenchmarkGTExp(b *testing.B) {
	k := benchScalar()
	base := GTBase()
	var out GT
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Exp(base, k)
	}
}

func BenchmarkGTExpBase(b *testing.B) {
	k := benchScalar()
	GTExpBase(k) // force the table build out of the timed region
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GTExpBase(k)
	}
}

// The ablations below run the paths the endomorphism split replaced: the
// width-5 GT power over all 254 bits, and the 960-entry window tables
// (built outside the timed region).

func BenchmarkGTExpWindowed(b *testing.B) {
	k := benchScalar()
	base := GTBase()
	var out fp12
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.expWindowed(&base.v, k)
	}
}

func BenchmarkGTExpBaseWindowTable(b *testing.B) {
	k := benchScalar()
	t := newGTWindowTable(&GTBase().v)
	var out fp12
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.exp(&out, k)
	}
}

func BenchmarkG2ScalarBaseMultWindowTable(b *testing.B) {
	k := benchScalar()
	t := newG2WindowTable(&g2Gen)
	var out G2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.mul(&out, k)
	}
}

func BenchmarkG1ScalarBaseMultWindowTable(b *testing.B) {
	k := benchScalar()
	t := newG1WindowTable(&g1Gen)
	var out G1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.mul(&out, k)
	}
}
