package fp

import (
	"math/big"
	"math/rand"
	"testing"
)

// ref reduces a big.Int into [0, p) — the reference arithmetic every limb
// operation is checked against.
func ref(x *big.Int) *big.Int { return new(big.Int).Mod(x, modulus) }

func randBig(r *rand.Rand) *big.Int {
	return new(big.Int).Rand(r, modulus)
}

func fromBig(t *testing.T, v *big.Int) *Element {
	t.Helper()
	var e Element
	e.SetBigInt(v)
	return &e
}

// edgeCases are the values most likely to trip carry/borrow handling.
func edgeCases() []*big.Int {
	pm1 := new(big.Int).Sub(modulus, big.NewInt(1))
	pm2 := new(big.Int).Sub(modulus, big.NewInt(2))
	half := new(big.Int).Rsh(modulus, 1)
	return []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2),
		new(big.Int).SetUint64(^uint64(0)),
		new(big.Int).Lsh(big.NewInt(1), 64),
		new(big.Int).Lsh(big.NewInt(1), 128),
		new(big.Int).Lsh(big.NewInt(1), 192),
		half, pm2, pm1,
	}
}

func testPairs(r *rand.Rand) [][2]*big.Int {
	var out [][2]*big.Int
	edges := edgeCases()
	for _, a := range edges {
		for _, b := range edges {
			out = append(out, [2]*big.Int{a, b})
		}
	}
	for i := 0; i < 200; i++ {
		out = append(out, [2]*big.Int{randBig(r), randBig(r)})
	}
	return out
}

func TestRoundTripBigInt(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, v := range append(edgeCases(), randBig(r), randBig(r)) {
		e := fromBig(t, v)
		if got := e.BigInt(); got.Cmp(ref(v)) != 0 {
			t.Fatalf("round trip %v: got %v", v, got)
		}
	}
}

func TestBinaryOpsVsBig(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, pair := range testPairs(r) {
		a, b := pair[0], pair[1]
		ea, eb := fromBig(t, a), fromBig(t, b)

		var sum, diff, prod Element
		sum.Add(ea, eb)
		diff.Sub(ea, eb)
		prod.Mul(ea, eb)

		if got, want := sum.BigInt(), ref(new(big.Int).Add(a, b)); got.Cmp(want) != 0 {
			t.Fatalf("add(%v,%v) = %v, want %v", a, b, got, want)
		}
		if got, want := diff.BigInt(), ref(new(big.Int).Sub(a, b)); got.Cmp(want) != 0 {
			t.Fatalf("sub(%v,%v) = %v, want %v", a, b, got, want)
		}
		if got, want := prod.BigInt(), ref(new(big.Int).Mul(a, b)); got.Cmp(want) != 0 {
			t.Fatalf("mul(%v,%v) = %v, want %v", a, b, got, want)
		}
	}
}

func TestUnaryOpsVsBig(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	vals := edgeCases()
	for i := 0; i < 100; i++ {
		vals = append(vals, randBig(r))
	}
	for _, v := range vals {
		e := fromBig(t, v)
		var neg, dbl, sq Element
		neg.Neg(e)
		dbl.Double(e)
		sq.Square(e)
		if got, want := neg.BigInt(), ref(new(big.Int).Neg(v)); got.Cmp(want) != 0 {
			t.Fatalf("neg(%v) = %v, want %v", v, got, want)
		}
		if got, want := dbl.BigInt(), ref(new(big.Int).Lsh(ref(v), 1)); got.Cmp(want) != 0 {
			t.Fatalf("double(%v) = %v, want %v", v, got, want)
		}
		if got, want := sq.BigInt(), ref(new(big.Int).Mul(v, v)); got.Cmp(want) != 0 {
			t.Fatalf("square(%v) = %v, want %v", v, got, want)
		}
	}
}

func TestInverseVsBig(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	vals := []*big.Int{big.NewInt(1), big.NewInt(2), new(big.Int).Sub(modulus, big.NewInt(1))}
	for i := 0; i < 50; i++ {
		vals = append(vals, randBig(r))
	}
	for _, v := range vals {
		if v.Sign() == 0 {
			continue
		}
		e := fromBig(t, v)
		var inv Element
		inv.Inverse(e)
		want := new(big.Int).ModInverse(ref(v), modulus)
		if got := inv.BigInt(); got.Cmp(want) != 0 {
			t.Fatalf("inv(%v) = %v, want %v", v, got, want)
		}
		var prod Element
		prod.Mul(e, &inv)
		if !prod.IsOne() {
			t.Fatalf("a·a⁻¹ != 1 for %v", v)
		}
	}
}

func TestInverseZeroIsZero(t *testing.T) {
	var z, zero Element
	z.SetOne()
	z.Inverse(&zero)
	if !z.IsZero() {
		t.Fatal("Inverse(0) != 0")
	}
}

func TestSqrt(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		v := randBig(r)
		e := fromBig(t, v)
		var sq, root, check Element
		sq.Square(e)
		if !root.Sqrt(&sq) {
			t.Fatalf("square of %v rejected by Sqrt", v)
		}
		check.Square(&root)
		if !check.Equal(&sq) {
			t.Fatalf("Sqrt returned non-root for %v", v)
		}
	}
	// Half the nonzero elements are non-residues; find one.
	found := false
	for i := 0; i < 64 && !found; i++ {
		e := fromBig(t, randBig(r))
		if e.IsZero() {
			continue
		}
		var root Element
		if !root.Sqrt(e) {
			found = true
		}
	}
	if !found {
		t.Fatal("no quadratic non-residue found in 64 samples")
	}
	var zero, z Element
	if !z.Sqrt(&zero) || !z.IsZero() {
		t.Fatal("Sqrt(0) != 0")
	}
}

func TestBytesRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	vals := edgeCases()
	for i := 0; i < 50; i++ {
		vals = append(vals, randBig(r))
	}
	for _, v := range vals {
		e := fromBig(t, v)
		buf := e.Bytes()
		var back Element
		if !back.SetBytes(buf[:]) {
			t.Fatalf("canonical bytes rejected for %v", v)
		}
		if !back.Equal(e) {
			t.Fatalf("bytes round trip mismatch for %v", v)
		}
	}
	// Non-canonical encodings must be rejected.
	var bad Element
	pBytes := make([]byte, 32)
	modulus.FillBytes(pBytes)
	if bad.SetBytes(pBytes) {
		t.Fatal("accepted p as an encoding")
	}
	allFF := make([]byte, 32)
	for i := range allFF {
		allFF[i] = 0xff
	}
	if bad.SetBytes(allFF) {
		t.Fatal("accepted 2^256-1 as an encoding")
	}
	if bad.SetBytes([]byte{1, 2, 3}) {
		t.Fatal("accepted short encoding")
	}
}

func TestCmpAndLexLarger(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 50; i++ {
		a, b := randBig(r), randBig(r)
		ea, eb := fromBig(t, a), fromBig(t, b)
		if got, want := ea.Cmp(eb), a.Cmp(b); got != want {
			t.Fatalf("Cmp(%v,%v) = %d, want %d", a, b, got, want)
		}
		neg := new(big.Int).Sub(modulus, a)
		neg.Mod(neg, modulus)
		if got, want := ea.LexLarger(), a.Cmp(neg) > 0; got != want {
			t.Fatalf("LexLarger(%v) = %v, want %v", a, got, want)
		}
	}
}

func TestSetUint64(t *testing.T) {
	for _, v := range []uint64{0, 1, 3, 9, ^uint64(0)} {
		var e Element
		e.SetUint64(v)
		if e.BigInt().Cmp(ref(new(big.Int).SetUint64(v))) != 0 {
			t.Fatalf("SetUint64(%d) mismatch", v)
		}
	}
}

func TestAliasing(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	a, b := randBig(r), randBig(r)
	// z aliased with both operands.
	e := fromBig(t, a)
	f := fromBig(t, b)
	e.Mul(e, f)
	if e.BigInt().Cmp(ref(new(big.Int).Mul(a, b))) != 0 {
		t.Fatal("aliased Mul mismatch")
	}
	g := fromBig(t, a)
	g.Mul(g, g)
	if g.BigInt().Cmp(ref(new(big.Int).Mul(a, a))) != 0 {
		t.Fatal("self-aliased Mul mismatch")
	}
	h := fromBig(t, a)
	h.Add(h, h)
	if h.BigInt().Cmp(ref(new(big.Int).Lsh(a, 1))) != 0 {
		t.Fatal("self-aliased Add mismatch")
	}
}

// kernelEdges are the Montgomery representations (raw limbs, all < p) that
// sit at the boundaries of the Mul/Add/Sub/Neg/Double kernels: the
// smallest values, the values next to p and p/2, R mod p (the
// representation of 1), and the values with each limb at the top of its
// range below p.
func kernelEdges() []kernelEdge {
	limbs := func(l0, l1, l2, l3 uint64) *big.Int {
		return limbsOf(Element{l0, l1, l2, l3})
	}
	const top = ^uint64(0)
	return []kernelEdge{
		{"0", big.NewInt(0)},
		{"1", big.NewInt(1)},
		{"2", big.NewInt(2)},
		{"p-1", new(big.Int).Sub(modulus, big.NewInt(1))},
		{"p-2", new(big.Int).Sub(modulus, big.NewInt(2))},
		{"half-p-1", new(big.Int).Rsh(modulus, 1)},                                  // (p−1)/2
		{"half-p+1", new(big.Int).Rsh(new(big.Int).Add(modulus, big.NewInt(1)), 1)}, // (p+1)/2
		{"R-mod-p", new(big.Int).Mod(new(big.Int).Lsh(big.NewInt(1), 256), modulus)},
		{"top-limbs-0..2", limbs(top, top, top, q3-1)},
		{"top-limbs-0..1", limbs(top, top, q2-1, q3)},
		{"top-limb-0", limbs(top, q1-1, q2, q3)},
	}
}

type kernelEdge struct {
	name string
	v    *big.Int
}

// elementOf sets the limbs of an Element to the representation v directly,
// so the kernels see exactly these words (no conversion through Mul).
func elementOf(v *big.Int) Element {
	var e Element
	for i, w := range v.Bits() {
		e[i] = uint64(w)
	}
	return e
}

// TestKernelEdgesVsBig checks every pair of kernelEdges through each kernel
// against math/big on the representations themselves: z = x·y·R⁻¹ for
// Mul/Square, and plain modular arithmetic for Add/Sub/Neg/Double. The
// oracle never calls Mul, so a kernel bug cannot cancel out through the
// Montgomery conversions.
func TestKernelEdgesVsBig(t *testing.T) {
	rInv := new(big.Int).ModInverse(new(big.Int).Lsh(big.NewInt(1), 256), modulus)
	mont := func(x, y *big.Int) *big.Int {
		v := new(big.Int).Mul(x, y)
		return ref(v.Mul(v, rInv))
	}
	check := func(t *testing.T, op string, got Element, want *big.Int) {
		t.Helper()
		if got != elementOf(want) {
			t.Errorf("%s = %x, want %x", op, got, elementOf(want))
		}
	}
	edges := kernelEdges()
	for _, ea0 := range edges {
		a, ea := ea0.v, elementOf(ea0.v)
		t.Run(ea0.name, func(t *testing.T) {
			var z Element
			check(t, "Square", *z.Square(&ea), mont(a, a))
			check(t, "Neg", *z.Neg(&ea), ref(new(big.Int).Neg(a)))
			check(t, "Double", *z.Double(&ea), ref(new(big.Int).Lsh(a, 1)))

			z = ea
			check(t, "z.Mul(z, z)", *z.Mul(&z, &z), mont(a, a))
			z = ea
			check(t, "z.Add(z, z)", *z.Add(&z, &z), ref(new(big.Int).Lsh(a, 1)))
			z = ea
			check(t, "z.Sub(z, z)", *z.Sub(&z, &z), big.NewInt(0))

			for _, eb0 := range edges {
				nb, b, eb := eb0.name, eb0.v, elementOf(eb0.v)
				check(t, "Mul "+nb, *z.Mul(&ea, &eb), mont(a, b))
				check(t, "Add "+nb, *z.Add(&ea, &eb), ref(new(big.Int).Add(a, b)))
				check(t, "Sub "+nb, *z.Sub(&ea, &eb), ref(new(big.Int).Sub(a, b)))
				z = ea
				check(t, "z.Mul(z, b) "+nb, *z.Mul(&z, &eb), mont(a, b))
				z = eb
				check(t, "z.Mul(a, z) "+nb, *z.Mul(&ea, &z), mont(a, b))
				if got, want := z.AddUnreduced(&ea, &eb), new(big.Int).Add(a, b); *got != elementOf(want) {
					t.Errorf("AddUnreduced %s = %x, want %x", nb, *got, elementOf(want))
				}
			}
		})
	}

	// Mul on unreduced operands in [p, 2p), the AddUnreduced outputs that
	// fp2.Mul and fp2.Square feed it: the result must still be canonical.
	unreduced := unreducedEdges()
	t.Run("unreduced", func(t *testing.T) {
		for _, ex := range unreduced {
			x, e := ex.v, elementOf(ex.v)
			var z Element
			check(t, "Square "+ex.name, *z.Square(&e), mont(x, x))
			for _, ey := range append(unreduced, edges...) {
				y, f := ey.v, elementOf(ey.v)
				check(t, "Mul "+ex.name+" "+ey.name, *z.Mul(&e, &f), mont(x, y))
				check(t, "Mul "+ey.name+" "+ex.name, *z.Mul(&f, &e), mont(x, y))
				z = e
				check(t, "z.Mul(z, b) "+ex.name+" "+ey.name, *z.Mul(&z, &f), mont(x, y))
			}
		}
	})
}

// unreducedEdges are values in [p, 2p), the range of AddUnreduced: p plus
// each kernel edge (so p, 2p−1, 2p−2 = (p−1)+(p−1), …), the value
// AddUnreduced returns for p−1 plus p−1, and the values below 2p with
// low limbs at the top of their range.
func unreducedEdges() []kernelEdge {
	var out []kernelEdge
	for _, e := range kernelEdges() {
		out = append(out, kernelEdge{"p+" + e.name, new(big.Int).Add(modulus, e.v)})
	}
	pm1 := elementOf(new(big.Int).Sub(modulus, big.NewInt(1)))
	var sum Element
	sum.AddUnreduced(&pm1, &pm1)
	out = append(out, kernelEdge{"(p-1)+(p-1)", limbsOf(sum)})

	twoP := elementOf(new(big.Int).Lsh(modulus, 1))
	const top = ^uint64(0)
	out = append(out,
		kernelEdge{"2p-top-limbs-0..2", limbsOf(Element{top, top, top, twoP[3] - 1})},
		kernelEdge{"2p-top-limbs-0..1", limbsOf(Element{top, top, twoP[2] - 1, twoP[3]})},
		kernelEdge{"2p-top-limb-0", limbsOf(Element{top, twoP[1] - 1, twoP[2], twoP[3]})},
	)
	for _, e := range out {
		if e.v.Cmp(modulus) < 0 || e.v.Cmp(new(big.Int).Lsh(modulus, 1)) >= 0 {
			panic("unreducedEdges: " + e.name + " outside [p, 2p)")
		}
	}
	return out
}

// limbsOf returns the integer the raw limbs of e stand for.
func limbsOf(e Element) *big.Int {
	v := new(big.Int)
	for i := 3; i >= 0; i-- {
		v.Lsh(v, 64).Or(v, new(big.Int).SetUint64(e[i]))
	}
	return v
}

func BenchmarkMul(b *testing.B) {
	r := rand.New(rand.NewSource(20))
	var x, y, z Element
	x.SetBigInt(randBig(r))
	y.SetBigInt(randBig(r))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Mul(&x, &y)
	}
}

func BenchmarkSquare(b *testing.B) {
	r := rand.New(rand.NewSource(21))
	var x, z Element
	x.SetBigInt(randBig(r))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Square(&x)
	}
}

func BenchmarkAdd(b *testing.B) {
	r := rand.New(rand.NewSource(22))
	var x, y, z Element
	x.SetBigInt(randBig(r))
	y.SetBigInt(randBig(r))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Add(&x, &y)
	}
}

func BenchmarkInverse(b *testing.B) {
	r := rand.New(rand.NewSource(23))
	var x, z Element
	x.SetBigInt(randBig(r))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Inverse(&x)
	}
}

func BenchmarkSqrt(b *testing.B) {
	r := rand.New(rand.NewSource(24))
	var x, sq, z Element
	x.SetBigInt(randBig(r))
	sq.Square(&x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Sqrt(&sq)
	}
}
