package bn254

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"typepre/internal/bn254/fp"
)

// ---------------------------------------------------------------------------
// Square roots
// ---------------------------------------------------------------------------

func TestFpSqrt(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	for i := 0; i < 20; i++ {
		var x, sq, y, y2 fp.Element
		x.SetBigInt(randFp(r))
		sq.Square(&x)
		if !y.Sqrt(&sq) {
			t.Fatal("square rejected by Sqrt")
		}
		y2.Square(&y)
		if !y2.Equal(&sq) {
			t.Fatal("Sqrt returned a non-root")
		}
	}
}

func TestFp2Sqrt(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randFp2(r)
		var sq fp2
		sq.Square(a)
		var root fp2
		if !root.Sqrt(&sq) {
			return false
		}
		var check fp2
		check.Square(&root)
		return check.Equal(&sq)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestFp2SqrtZero(t *testing.T) {
	var z, zero fp2
	if !z.Sqrt(&zero) || !z.IsZero() {
		t.Fatal("sqrt(0) != 0")
	}
}

func TestFp2SqrtNonResidueRejected(t *testing.T) {
	// A quadratic non-residue must be reported as such. Find one by trying
	// small elements: exactly half the nonzero elements are non-residues.
	r := rand.New(rand.NewSource(21))
	found := false
	for i := 0; i < 64 && !found; i++ {
		a := randFp2(r)
		if a.IsZero() {
			continue
		}
		var root fp2
		if !root.Sqrt(a) {
			found = true
		}
	}
	if !found {
		t.Fatal("no non-residue found in 64 samples (p≈1/2^64 if correct)")
	}
}

// ---------------------------------------------------------------------------
// Compressed encodings
// ---------------------------------------------------------------------------

func TestG1CompressedRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for i := 0; i < 10; i++ {
		var p, q G1
		p.ScalarBaseMult(new(big.Int).Rand(r, Order))
		data := p.MarshalCompressed()
		if len(data) != G1CompressedSize {
			t.Fatalf("compressed size %d", len(data))
		}
		if err := q.Unmarshal(p.Marshal()); err != nil {
			t.Fatal(err)
		}
		var got G1
		if err := got.UnmarshalCompressed(data); err != nil {
			t.Fatal(err)
		}
		if !got.Equal(&p) {
			t.Fatal("G1 compressed round trip mismatch")
		}
	}
	// Infinity.
	var inf, got G1
	inf.inf = true
	if err := got.UnmarshalCompressed(inf.MarshalCompressed()); err != nil || !got.IsInfinity() {
		t.Fatal("G1 compressed infinity round trip failed")
	}
}

func TestG1CompressedRejectsInvalid(t *testing.T) {
	var p G1
	if err := p.UnmarshalCompressed([]byte{1, 2}); err == nil {
		t.Fatal("accepted bad length")
	}
	bad := make([]byte, G1CompressedSize)
	bad[0] = 0x07
	if err := p.UnmarshalCompressed(bad); err == nil {
		t.Fatal("accepted bad header")
	}
	// x with no curve point: x=5 → 125+3=128; quadratic residue? Search for
	// a rejected x deterministically.
	found := false
	for x := int64(1); x < 64 && !found; x++ {
		enc := make([]byte, G1CompressedSize)
		enc[0] = compressedEven
		big.NewInt(x).FillBytes(enc[1:])
		if err := p.UnmarshalCompressed(enc); err != nil {
			found = true
		}
	}
	if !found {
		t.Fatal("every small x decompressed — expected some off-curve rejections")
	}
	// Infinity flag with non-zero x.
	badInf := make([]byte, G1CompressedSize)
	badInf[33-1] = 1
	if err := p.UnmarshalCompressed(badInf); err == nil {
		t.Fatal("accepted non-canonical infinity")
	}
}

func TestG2CompressedRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for i := 0; i < 5; i++ {
		var p G2
		p.ScalarBaseMult(new(big.Int).Rand(r, Order))
		data := p.MarshalCompressed()
		if len(data) != G2CompressedSize {
			t.Fatalf("compressed size %d", len(data))
		}
		var got G2
		if err := got.UnmarshalCompressed(data); err != nil {
			t.Fatal(err)
		}
		if !got.Equal(&p) {
			t.Fatal("G2 compressed round trip mismatch")
		}
	}
	var inf, got G2
	inf.inf = true
	if err := got.UnmarshalCompressed(inf.MarshalCompressed()); err != nil || !got.IsInfinity() {
		t.Fatal("G2 compressed infinity round trip failed")
	}
}

func TestG2CompressedRejectsInvalid(t *testing.T) {
	var p G2
	if err := p.UnmarshalCompressed([]byte{9}); err == nil {
		t.Fatal("accepted bad length")
	}
	bad := make([]byte, G2CompressedSize)
	bad[0] = 0xff
	if err := p.UnmarshalCompressed(bad); err == nil {
		t.Fatal("accepted bad header")
	}
}

// ---------------------------------------------------------------------------
// Jacobian vs affine scalar multiplication
// ---------------------------------------------------------------------------

func TestG1JacobianMatchesAffine(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := new(big.Int).Rand(r, Order)
		base := new(big.Int).Rand(r, Order)
		var a G1
		a.scalarMultAffine(&g1Gen, base)
		var viaJac, viaAff G1
		viaJac.ScalarMult(&a, k)
		viaAff.scalarMultAffine(&a, k)
		return viaJac.Equal(&viaAff) && viaJac.IsOnCurve()
	}
	cfg := quickCfg()
	cfg.MaxCount = 10
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestG2JacobianMatchesAffine(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := new(big.Int).Rand(r, Order)
		var viaJac, viaAff G2
		viaJac.ScalarMult(&g2Gen, k)
		viaAff.scalarMultAffine(&g2Gen, k)
		return viaJac.Equal(&viaAff) && viaJac.IsOnCurve()
	}
	cfg := quickCfg()
	cfg.MaxCount = 6
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestJacobianEdgeCases(t *testing.T) {
	// k = 0, k = r, k = 1, infinity input.
	var z G1
	z.ScalarMult(&g1Gen, big.NewInt(0))
	if !z.IsInfinity() {
		t.Fatal("0·G != ∞")
	}
	z.ScalarMult(&g1Gen, Order)
	if !z.IsInfinity() {
		t.Fatal("r·G != ∞")
	}
	z.ScalarMult(&g1Gen, big.NewInt(1))
	if !z.Equal(&g1Gen) {
		t.Fatal("1·G != G")
	}
	var inf G1
	inf.inf = true
	z.ScalarMult(&inf, big.NewInt(7))
	if !z.IsInfinity() {
		t.Fatal("k·∞ != ∞")
	}

	var z2 G2
	z2.ScalarMult(&g2Gen, Order)
	if !z2.IsInfinity() {
		t.Fatal("r·G2 != ∞")
	}
	z2.ScalarMult(&g2Gen, big.NewInt(1))
	if !z2.Equal(&g2Gen) {
		t.Fatal("1·G2 != G2")
	}
}

func TestJacobianSmallScalars(t *testing.T) {
	// Cross-check the first few multiples against repeated affine addition.
	var acc G1
	acc.inf = true
	for k := int64(0); k <= 16; k++ {
		var got G1
		got.ScalarMult(&g1Gen, big.NewInt(k))
		if !got.Equal(&acc) {
			t.Fatalf("%d·G mismatch", k)
		}
		acc.Add(&acc, &g1Gen)
	}
}

// ---------------------------------------------------------------------------
// Windowed exponentiation
// ---------------------------------------------------------------------------

func TestExpWindowedMatchesBinary(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randFp12(r)
		k := new(big.Int).Rand(r, Order)
		var w, b fp12
		w.Exp(a, k)
		b.expBinary(a, k)
		return w.Equal(&b)
	}
	cfg := quickCfg()
	cfg.MaxCount = 8
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestExpEdgeExponents(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	a := randFp12(r)
	var out fp12
	out.Exp(a, big.NewInt(0))
	if !out.IsOne() {
		t.Fatal("a^0 != 1")
	}
	out.Exp(a, big.NewInt(1))
	if !out.Equal(a) {
		t.Fatal("a^1 != a")
	}
	// A 65-bit exponent whose top nibble is a single bit.
	k := new(big.Int).Lsh(big.NewInt(1), 64)
	k.Add(k, big.NewInt(3))
	var w, b fp12
	w.Exp(a, k)
	b.expBinary(a, k)
	if !w.Equal(&b) {
		t.Fatal("boundary exponent mismatch")
	}
}
