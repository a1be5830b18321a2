package bn254

import (
	"math/big"

	"typepre/internal/bn254/fp"
)

// Endomorphism-split scalar multiplication and exponentiation
// (Gallant–Lambert–Vanstone, CRYPTO 2001; Galbraith–Scott, "Exponentiation
// in pairing-friendly groups using homomorphisms", Pairing 2008).
//
// Each group of prime order r carries a cheap endomorphism that acts as
// exponentiation by a fixed λ: the Frobenius a ↦ a^p on GT and ψ
// (frobeniusTwist) on G2 act as λ = p mod r = 6u², and φ(x, y) = (βx, y)
// on G1 acts as λ₁ = 36u³+18u²+6u+1. Writing k ≡ Σ kᵢλⁱ (mod r) with short
// kᵢ turns one 254-bit power into a joint power of n bases with ~254/n-bit
// exponents: n = 4 on GT and G2, n = 2 on G1. docs/bn254.md ("Endomorphism
// split") derives the bases, the rounding constants and the bounds on kᵢ.
//
// The identity Σ kᵢλⁱ ≡ k holds only on the order-r subgroup, where the
// endomorphism is the power λ. Every input must lie there.

// splitLattice holds a short basis of the lattice
// {(k₀, …, kₙ₋₁) : Σ kᵢλⁱ ≡ 0 (mod r)}, whose determinant is ±r, and the
// numerators α of Babai rounding: the first row of the inverse basis is α/r.
type splitLattice struct {
	basis [][]*big.Int // rows
	round []*big.Int
}

// uPoly returns c₀ + c₁u + c₂u² + c₃u³.
func uPoly(c ...int64) *big.Int {
	v := new(big.Int)
	for i := len(c) - 1; i >= 0; i-- {
		v.Mul(v, u)
		v.Add(v, big.NewInt(c[i]))
	}
	return v
}

var (
	// lambda is p mod r = 6u², the power by which the Frobenius acts on GT
	// and ψ on G2.
	lambda = uPoly(0, 0, 6)

	// split4 is the 4-dimensional lattice of GT and G2. Its basis has
	// determinant −r, so every component is below 2⁶⁴ in absolute value.
	split4 = splitLattice{
		basis: [][]*big.Int{
			{uPoly(1, 2), uPoly(0), uPoly(0, 2), uPoly(1)},
			{uPoly(0, 2), uPoly(1, 1), uPoly(0, -1), uPoly(0, 1)},
			{uPoly(1, 1), uPoly(0, 1), uPoly(0, 1), uPoly(0, -2)},
			{uPoly(1, 2), uPoly(0, -1), uPoly(-1, -1), uPoly(0, -1)},
		},
		round: []*big.Int{uPoly(0, 2, 6, 6), uPoly(0, -1, 0, 6), uPoly(1, 2), uPoly(0, 1, 6, 6)},
	}

	// split2 is the 2-dimensional lattice of G1. Its basis has
	// determinant r, so both components are below 2¹²⁶ in absolute value.
	split2 = splitLattice{
		basis: [][]*big.Int{
			{uPoly(1, 2), uPoly(0, -2, -6)},
			{uPoly(1, 4, 6), uPoly(1, 2)},
		},
		round: []*big.Int{uPoly(1, 2), uPoly(0, 2, 6)},
	}

	// betaG1 is the cube root of unity 18u³+18u²+9u+1 in Fp that makes
	// φ(x, y) = (βx, y) act on G1 as λ₁ (the other root gives λ₁²).
	betaG1 = func() fp.Element {
		var b fp.Element
		b.SetBigInt(uPoly(1, 9, 18, 18))
		return b
	}()
)

// split returns k₀, …, kₙ₋₁ with Σ kᵢλⁱ ≡ k (mod r): k mod r minus the
// lattice vector that Babai rounding puts nearest to (k mod r, 0, …, 0).
func (l *splitLattice) split(k *big.Int) []*big.Int {
	kk := new(big.Int).Mod(k, Order)
	n := len(l.round)
	comps := make([]*big.Int, n)
	comps[0] = new(big.Int).Set(kk)
	for i := 1; i < n; i++ {
		comps[i] = new(big.Int)
	}
	twoR := new(big.Int).Lsh(Order, 1)
	var c, t big.Int
	for j, row := range l.basis {
		// c = round(kk·αⱼ/r) = ⌊(2·kk·αⱼ + r)/2r⌋; kk·αⱼ ≥ 0.
		c.Mul(kk, l.round[j])
		c.Lsh(&c, 1)
		c.Add(&c, Order)
		c.Quo(&c, twoR)
		for i, b := range row {
			comps[i].Sub(comps[i], t.Mul(&c, b))
		}
	}
	return comps
}

// digits returns the width-w signed-digit recodings of split(k): a
// negative kᵢ recodes as the negated digits of |kᵢ|, so it takes the
// inverse of its base, which costs a conjugation or a negation.
func (l *splitLattice) digits(k *big.Int, w uint) [][]int8 {
	comps := l.split(k)
	out := make([][]int8, len(comps))
	for i, c := range comps {
		d := wnaf(new(big.Int).Abs(c), w)
		if c.Sign() < 0 {
			for j := range d {
				d[j] = -d[j]
			}
		}
		out[i] = d
	}
	return out
}

// maxLen returns the length of the longest recoding in digits.
func maxLen(digits [][]int8) int {
	n := 0
	for _, d := range digits {
		n = max(n, len(d))
	}
	return n
}

// gtExpWindow is the recoding width of GT.Exp: four odd powers per base,
// built for each call, and about one multiplication per five exponent bits
// of each of the four 64-bit components.
const gtExpWindow = 4

// frobeniusTables fills tabs[i] with the i-fold Frobenius of tabs[0]: for
// tabs[0] = a, a³, a⁵, … that is π^i(a) = a^(λ^i) and its odd powers.
func frobeniusTables(tabs [][]fp12) {
	for i := 1; i < len(tabs); i++ {
		for j := range tabs[i] {
			tabs[i][j].Frobenius(&tabs[i-1][j])
		}
	}
}

// oddPowers fills tab with a, a³, a⁵, … for a in the cyclotomic subgroup.
func oddPowers(tab []fp12, a *fp12) {
	tab[0].Set(a)
	if len(tab) > 1 {
		var a2 fp12
		a2.cyclotomicSquare(a)
		for i := 1; i < len(tab); i++ {
			tab[i].Mul(&tab[i-1], &a2)
		}
	}
}

// cyclotomicMultiExp sets e = Π bᵢ^kᵢ for bases bᵢ in the cyclotomic
// subgroup and returns e, given the odd powers tabs[i] = bᵢ, bᵢ³, bᵢ⁵, …
// and digits[i], a signed-digit recoding of kᵢ with every |d| below
// 2·len(tabs[i]). One squaring chain serves every base; a negative digit
// takes the conjugate of its entry. Aliasing is allowed.
func (e *fp12) cyclotomicMultiExp(tabs [][]fp12, digits [][]int8) *fp12 {
	var res, t fp12
	res.SetOne()
	started := false
	for i := maxLen(digits) - 1; i >= 0; i-- {
		if started {
			res.cyclotomicSquare(&res)
		}
		for j, ds := range digits {
			if i >= len(ds) || ds[i] == 0 {
				continue
			}
			if d := ds[i]; d > 0 {
				t.Set(&tabs[j][d>>1])
			} else {
				t.Conjugate(&tabs[j][(-d)>>1])
			}
			if started {
				res.Mul(&res, &t)
			} else {
				res.Set(&t)
				started = true
			}
		}
	}
	return e.Set(&res)
}

// g2MultiMul sets p = Σ kᵢ·Bᵢ and returns p, given affine tables
// tabs[i] = Bᵢ, 3Bᵢ, 5Bᵢ, … and digits[i] as for cyclotomicMultiExp. It
// accumulates in Jacobian coordinates with mixed additions; a negative
// digit adds the negated entry.
func g2MultiMul(p *G2, tabs [][]G2, digits [][]int8) *G2 {
	var acc g2Jac
	acc.setInfinity()
	var neg G2
	for i := maxLen(digits) - 1; i >= 0; i-- {
		acc.double()
		for j, ds := range digits {
			if i >= len(ds) || ds[i] == 0 {
				continue
			}
			if d := ds[i]; d > 0 {
				acc.addMixed(&tabs[j][d>>1])
			} else {
				neg.Neg(&tabs[j][(-d)>>1])
				acc.addMixed(&neg)
			}
		}
	}
	acc.toAffine(p)
	return p
}

// g1MulWindow is the recoding width of G1.ScalarMult: four odd multiples
// per base, built for each call.
const g1MulWindow = 4

// g1MultiMul sets p = Σ kᵢ·Bᵢ and returns p, given Jacobian tables
// tabs[i] = Bᵢ, 3Bᵢ, 5Bᵢ, … and digits[i] as for cyclotomicMultiExp.
func g1MultiMul(p *G1, tabs [][]g1Jac, digits [][]int8) *G1 {
	var acc, neg g1Jac
	acc.setInfinity()
	for i := maxLen(digits) - 1; i >= 0; i-- {
		acc.double()
		for j, ds := range digits {
			if i >= len(ds) || ds[i] == 0 {
				continue
			}
			if d := ds[i]; d > 0 {
				acc.add(&tabs[j][d>>1])
			} else {
				neg = tabs[j][(-d)>>1]
				neg.y.Neg(&neg.y)
				acc.add(&neg)
			}
		}
	}
	acc.toAffine(p)
	return p
}
