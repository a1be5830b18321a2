package fp

import (
	"bytes"
	"math/big"
	"math/rand"
	"sync"
	"testing"
)

// rInv is R⁻¹ mod p. It is computed on first use: the package init that
// sets modulus runs after package-level variables are initialized.
var rInv = sync.OnceValue(func() *big.Int {
	return new(big.Int).ModInverse(new(big.Int).Lsh(big.NewInt(1), 256), modulus)
})

// montRef is the Montgomery product x·y·R⁻¹ mod p of two representations,
// computed with math/big alone.
func montRef(x, y *big.Int) *big.Int {
	v := new(big.Int).Mul(x, y)
	return ref(v.Mul(v, rInv()))
}

// FuzzMulVsBig feeds the input shape and seeds of the bn254 package's
// FuzzFpVsBig (two 32-byte halves) to both Mul kernels, as raw limbs
// rather than canonical elements: each half is reduced into [0, 2p), the
// canonical range plus the unreduced range of AddUnreduced, and every
// aliasing form of Mul is checked against montRef. FuzzFpVsBig itself runs
// in package bn254, where only the dispatched Mul is reachable.
func FuzzMulVsBig(f *testing.F) {
	pBytes := make([]byte, 32)
	modulus.FillBytes(pBytes)
	twoPMinus1 := make([]byte, 32)
	new(big.Int).Sub(new(big.Int).Lsh(modulus, 1), big.NewInt(1)).FillBytes(twoPMinus1)
	f.Add(make([]byte, 64))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Add(append(pBytes, pBytes...))
	f.Add(append(twoPMinus1, twoPMinus1...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 64 {
			return
		}
		twoP := new(big.Int).Lsh(modulus, 1)
		x := new(big.Int).Mod(new(big.Int).SetBytes(data[:32]), twoP)
		y := new(big.Int).Mod(new(big.Int).SetBytes(data[32:64]), twoP)
		a, b := elementOf(x), elementOf(y)
		wantXY, wantXX := elementOf(montRef(x, y)), elementOf(montRef(x, x))
		for _, k := range mulKernels {
			var z Element
			if k.mul(&z, &a, &b); z != wantXY {
				t.Fatalf("%s(%v, %v) = %x, want %x", k.name, x, y, z, wantXY)
			}
			if z = a; *k.mul(&z, &z, &b) != wantXY {
				t.Fatalf("%s z=a, z*=b (%v, %v) = %x, want %x", k.name, x, y, z, wantXY)
			}
			if z = b; *k.mul(&z, &a, &z) != wantXY {
				t.Fatalf("%s z=b, z=a*z (%v, %v) = %x, want %x", k.name, x, y, z, wantXY)
			}
			if z = a; *k.mul(&z, &z, &z) != wantXX {
				t.Fatalf("%s z*=z (%v) = %x, want %x", k.name, x, z, wantXX)
			}
		}
	})
}

// TestMulKernelsAgree compares Mul with mulGeneric on random raw operands
// in [0, 2p), word for word, in every aliasing form. It is the cheap
// high-volume check; the math/big checks above pin both to the field.
func TestMulKernelsAgree(t *testing.T) {
	n := 100000
	if testing.Short() {
		n = 10000
	}
	r := rand.New(rand.NewSource(11))
	twoP := new(big.Int).Lsh(modulus, 1)
	operand := func() Element { return elementOf(new(big.Int).Rand(r, twoP)) }
	for i := 0; i < n; i++ {
		a, b := operand(), operand()
		var want, got Element
		mulGeneric(&want, &a, &b)
		if got.Mul(&a, &b); got != want {
			t.Fatalf("Mul(%x, %x) = %x, mulGeneric %x", a, b, got, want)
		}
		if got = a; *got.Mul(&got, &b) != want {
			t.Fatalf("z=a, z.Mul(z, b) (%x, %x) = %x, mulGeneric %x", a, b, got, want)
		}
		if got = b; *got.Mul(&a, &got) != want {
			t.Fatalf("z=b, z.Mul(a, z) (%x, %x) = %x, mulGeneric %x", a, b, got, want)
		}
		mulGeneric(&want, &a, &a)
		if got = a; *got.Mul(&got, &got) != want {
			t.Fatalf("z=a, z.Mul(z, z) (%x) = %x, mulGeneric %x", a, got, want)
		}
	}
}

// TestMulAllocatesNothing pins the no-allocation half of the kernel
// contract for both kernels.
func TestMulAllocatesNothing(t *testing.T) {
	var x, y, z Element
	x.SetUint64(3)
	y.SetUint64(5)
	for _, k := range mulKernels {
		if n := testing.AllocsPerRun(100, func() { k.mul(&z, &x, &y) }); n != 0 {
			t.Errorf("%s allocates %v times per call", k.name, n)
		}
	}
}
