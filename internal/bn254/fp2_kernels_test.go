package bn254

import (
	"bytes"
	"encoding/binary"
	"math/big"
	"math/rand"
	"testing"

	"typepre/internal/bn254/fp"
)

// fp2Kernels pairs each Fp2 kernel with its Go body. On amd64 the kernel is
// the fused assembly of fp2_amd64.s (Mul and Square jump to their Go body
// on a CPU without ADX); elsewhere both entries run the Go body. Unary
// kernels ignore b.
var fp2Kernels = []struct {
	name            string
	kernel, generic func(z, a, b *fp2)
}{
	{"Add", fp2Add, fp2AddGeneric},
	{"Sub", fp2Sub, fp2SubGeneric},
	{"Mul", fp2Mul, fp2MulGeneric},
	{"Double", unaryFp2(fp2Double), unaryFp2(fp2DoubleGeneric)},
	{"Neg", unaryFp2(fp2Neg), unaryFp2(fp2NegGeneric)},
	{"Square", unaryFp2(fp2Square), unaryFp2(fp2SquareGeneric)},
	{"mulByXi", unaryFp2(mulByXi), unaryFp2(mulByXiGeneric)},
}

func unaryFp2(f func(z, a *fp2)) func(z, a, b *fp2) {
	return func(z, a, _ *fp2) { f(z, a) }
}

// checkFp2Kernels runs every kernel on (a, b) in each aliasing form —
// z apart, z == a, z == b and z == a == b — and compares it with its Go
// body word for word.
func checkFp2Kernels(t *testing.T, a, b fp2) {
	t.Helper()
	for _, k := range fp2Kernels {
		var want, wantAA fp2
		k.generic(&want, &a, &b)
		k.generic(&wantAA, &a, &a)
		forms := []struct {
			name    string
			z, want fp2
			run     func(z *fp2)
		}{
			{"z apart", fp2{}, want, func(z *fp2) { k.kernel(z, &a, &b) }},
			{"z=a", a, want, func(z *fp2) { k.kernel(z, z, &b) }},
			{"z=b", b, want, func(z *fp2) { k.kernel(z, &a, z) }},
			{"z=a=b", a, wantAA, func(z *fp2) { k.kernel(z, z, z) }},
		}
		for _, f := range forms {
			got := f.z
			if f.run(&got); got != f.want {
				t.Fatalf("%s %s (%x, %x) = %x, Go body %x", k.name, f.name, a, b, got, f.want)
			}
		}
	}
}

// rawFp sets the limbs of an Element to v mod p directly, so the kernels
// see exactly these words (no Montgomery conversion).
func rawFp(v *big.Int) fp.Element {
	var buf [32]byte
	new(big.Int).Mod(v, P).FillBytes(buf[:])
	var e fp.Element
	for i := range e {
		e[i] = binary.BigEndian.Uint64(buf[32-8*(i+1):])
	}
	return e
}

// FuzzFp2KernelsVsGeneric checks every Fp2 kernel against its Go body on
// fuzzed canonical coefficients, taken as raw limbs: 128 bytes are the
// four 32-byte big-endian values a0, a1, b0, b1, each reduced mod p. The
// seeds put the coefficients on 0, 1 and p−1, and push the lazy kernels
// to their bounds:
//   - a = b = (p−1, p−1): the Karatsuba sums reach 2p−2, the largest
//     unreduced operand a product gets, and fp2Mul's c1 = a0b1 + a1b0
//     its largest 512-bit value.
//   - a0 = 0, a1 = b1 = p−1 or p−11: v0 = 0 against the largest v1, so
//     fp2Mul's c0 = v0 − v1 + p² rests on the p² offset. Without it REDC
//     would reduce v0 − v1 + 2^512, which goes wrong only where its m·p
//     is below v1 − v0: at p−11, not at p−1.
//   - a = b = (p−1, 0): the largest c0, v0 + p².
//   - mulByXi inputs near p−1, and ones that make 9a0 − a1 or a0 + 9a1 a
//     multiple of p, where mulByXi's quotient estimate falls short by one.
func FuzzFp2KernelsVsGeneric(f *testing.F) {
	n := func(v int64) *big.Int { return big.NewInt(v) }
	sub := func(x, y *big.Int) *big.Int { return new(big.Int).Sub(x, y) }
	pm1 := sub(P, n(1))
	edges := []*big.Int{n(0), n(1), pm1}
	seed := func(vs ...*big.Int) []byte {
		var out []byte
		for _, v := range vs {
			out = append(out, v.FillBytes(make([]byte, 32))...)
		}
		return out
	}
	for _, x := range edges {
		for _, y := range edges {
			f.Add(seed(x, y, y, x))
		}
	}
	f.Add(seed(pm1, pm1, pm1, pm1))
	f.Add(seed(n(0), pm1, n(0), pm1))
	f.Add(seed(n(0), sub(P, n(11)), n(0), sub(P, n(11))))
	f.Add(seed(n(0), pm1, pm1, pm1))
	f.Add(seed(pm1, n(0), pm1, n(0)))
	// mulByXi reads a only: b repeats a.
	for _, a := range [][2]*big.Int{
		{pm1, sub(P, n(2))},
		{sub(P, n(2)), pm1},
		{n(1), n(9)},          // 9a0 + p − a1 = p
		{pm1, sub(P, n(9))},   // 9a0 + p − a1 = 9p
		{sub(P, n(9)), n(1)},  // a0 + 9a1 = p
		{sub(P, n(81)), n(9)}, // a0 + 9a1 = p, 9a0 + p − a1 = 10p − 738
		{n(9), pm1},           // a0 + 9a1 = 9p
	} {
		f.Add(seed(a[0], a[1], a[0], a[1]))
	}
	f.Add(bytes.Repeat([]byte{0xff}, 128))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 128 {
			return
		}
		var v [4]fp.Element
		for i := range v {
			v[i] = rawFp(new(big.Int).SetBytes(data[32*i : 32*(i+1)]))
		}
		checkFp2Kernels(t, fp2{v[0], v[1]}, fp2{v[2], v[3]})
	})
}

// TestFp2KernelsAgree is the high-volume check: random canonical raw
// coefficients, every kernel against its Go body in every aliasing form.
func TestFp2KernelsAgree(t *testing.T) {
	n := 100000
	if testing.Short() {
		n = 10000
	}
	r := rand.New(rand.NewSource(21))
	coeff := func() fp.Element { return rawFp(new(big.Int).Rand(r, P)) }
	for i := 0; i < n; i++ {
		checkFp2Kernels(t, fp2{coeff(), coeff()}, fp2{coeff(), coeff()})
	}
}

// TestFp2KernelsAllocateNothing pins the no-allocation clause of the
// kernel contract for the kernels and their Go bodies.
func TestFp2KernelsAllocateNothing(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	x, y := randFp2(r), randFp2(r)
	var z fp2
	for _, k := range fp2Kernels {
		if n := testing.AllocsPerRun(100, func() { k.kernel(&z, x, y) }); n != 0 {
			t.Errorf("%s allocates %v times per call", k.name, n)
		}
		if n := testing.AllocsPerRun(100, func() { k.generic(&z, x, y) }); n != 0 {
			t.Errorf("%s Go body allocates %v times per call", k.name, n)
		}
	}
}
