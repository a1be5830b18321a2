package bn254

import "math/big"

// Arithmetic in the cyclotomic subgroup of Fp12*.
//
// After the easy part of the final exponentiation, f^((p⁶−1)(p²+1)) lies in
// the subgroup of order Φ₁₂(p) = p⁴−p²+1, which contains GT. Two facts make
// exponentiation there cheaper than in Fp12* at large:
//
//   - inversion is the conjugate a^(p⁶), a negation of a.c1, so signed-digit
//     exponent recodings cost nothing extra per negative digit;
//   - squaring has the Granger–Scott form ("Faster Squaring in the
//     Cyclotomic Subgroup of Sixth Degree Extensions", PKC 2010): nine fp2
//     squarings in place of Square's two fp6 multiplications.
//
// Both facts are false for elements outside the subgroup, so these
// routines take only values that are known to be in it: easy-part outputs
// inside the final exponentiation and GT elements produced by this package.

// cyclotomicSquare sets e = a² for a in the cyclotomic subgroup and returns
// e. Aliasing is allowed.
//
// Regroup Fp12 as Fp4[ω]/(ω³ − s) with Fp4 = Fp2[s]/(s² − ξ), s = ω³:
//
//	a = g0 + g1·ω + g2·ω²,  g0 = a00 + a11·s, g1 = a10 + a02·s, g2 = a01 + a12·s
//
// where aij is coefficient j of a.ci. For a in the cyclotomic subgroup,
// Granger–Scott give
//
//	a² = (3g0² − 2ḡ0) + (3s·g2² + 2ḡ1)·ω + (3g1² − 2ḡ2)·ω²
//
// with ḡ the Fp4 conjugate (s → −s). Each Fp4 square (x + y·s)² =
// (x² + ξy²) + ((x+y)² − x² − y²)·s takes three fp2 squarings.
func (e *fp12) cyclotomicSquare(a *fp12) *fp12 {
	// sq4 returns the Fp4 square of x + y·s as (lo, hi).
	sq4 := func(lo, hi, x, y *fp2) {
		var xx, yy fp2
		xx.Square(x)
		yy.Square(y)
		hi.Add(x, y)
		hi.Square(hi)
		hi.Sub(hi, &xx)
		hi.Sub(hi, &yy)
		mulByXi(lo, &yy)
		lo.Add(lo, &xx)
	}
	var t0, t1, t2, t3, t4, t5 fp2
	sq4(&t0, &t1, &a.c0.c0, &a.c1.c1) // g0²
	sq4(&t2, &t3, &a.c1.c0, &a.c0.c2) // g1²
	sq4(&t4, &t5, &a.c0.c1, &a.c1.c2) // g2²
	mulByXi(&t5, &t5)                 // s·g2² = ξ·hi + lo·s

	// 3x − 2c = 2(x − c) + x for the conjugate-subtracted slots and
	// 3x + 2c = 2(x + c) + x for the conjugate-added ones.
	minus := func(z, x, c *fp2) {
		var d fp2
		d.Sub(x, c)
		d.Double(&d)
		z.Add(&d, x)
	}
	plus := func(z, x, c *fp2) {
		var d fp2
		d.Add(x, c)
		d.Double(&d)
		z.Add(&d, x)
	}
	minus(&e.c0.c0, &t0, &a.c0.c0)
	plus(&e.c1.c1, &t1, &a.c1.c1)
	plus(&e.c1.c0, &t5, &a.c1.c0)
	minus(&e.c0.c2, &t4, &a.c0.c2)
	minus(&e.c0.c1, &t2, &a.c0.c1)
	plus(&e.c1.c2, &t3, &a.c1.c2)
	return e
}

// wnaf returns the width-w signed-digit recoding of k ≥ 0, least
// significant digit first: every nonzero digit d is odd with
// |d| < 2^(w−1), and of any w consecutive digits at most one is nonzero.
// Width 2 is the non-adjacent form (NAF). Valid for 2 ≤ w ≤ 7.
func wnaf(k *big.Int, w uint) []int8 {
	n := k.BitLen()
	digits := make([]int8, n+1)
	var carry uint
	for i := 0; i <= n; {
		if (k.Bit(i)+carry)&1 == 0 {
			carry = (k.Bit(i) + carry) >> 1
			i++
			continue
		}
		v := carry
		for j := 0; j < int(w); j++ {
			v += k.Bit(i+j) << j
		}
		// v is odd, so v < 2^w; fold the top half to negative digits.
		if v >= 1<<(w-1) {
			digits[i] = int8(int(v) - 1<<w)
			carry = 1
		} else {
			digits[i] = int8(v)
			carry = 0
		}
		i += int(w)
	}
	return digits
}

// recombine returns Σ digits[i]·2^i, the integer a signed-digit recoding
// stands for.
func recombine(digits []int8) *big.Int {
	v := new(big.Int)
	for i := len(digits) - 1; i >= 0; i-- {
		v.Lsh(v, 1)
		v.Add(v, big.NewInt(int64(digits[i])))
	}
	return v
}

// gtExpWindow is the recoding width of GT.Exp: eight odd powers in the
// table and about one multiplication per six exponent bits.
const gtExpWindow = 5

// cyclotomicExp sets e = a^k for a in the cyclotomic subgroup, given the
// width-w recoding digits = wnaf(k, w) with w ≤ gtExpWindow, and returns e.
// It keeps the odd powers a, a³, …, a^(2^(w−1)−1) and takes a negative
// digit from the conjugate of its table entry. Aliasing is allowed.
func (e *fp12) cyclotomicExp(a *fp12, digits []int8, w uint) *fp12 {
	var buf [1 << (gtExpWindow - 2)]fp12
	table := buf[:1<<(w-2)]
	table[0].Set(a)
	if len(table) > 1 {
		var a2 fp12
		a2.cyclotomicSquare(a)
		for i := 1; i < len(table); i++ {
			table[i].Mul(&table[i-1], &a2)
		}
	}
	var res, t fp12
	res.SetOne()
	started := false
	for i := len(digits) - 1; i >= 0; i-- {
		if started {
			res.cyclotomicSquare(&res)
		}
		d := digits[i]
		if d == 0 {
			continue
		}
		if d > 0 {
			t.Set(&table[d>>1])
		} else {
			t.Conjugate(&table[(-d)>>1])
		}
		if started {
			res.Mul(&res, &t)
		} else {
			res.Set(&t)
			started = true
		}
	}
	return e.Set(&res)
}
