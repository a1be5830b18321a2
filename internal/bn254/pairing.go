package bn254

import (
	"math/big"
	"sync"
)

// lineCoeff holds the P-independent coefficients of one Miller-loop line.
// The line through ψ(T) and ψ(S) (or the tangent at ψ(T) when doubling),
// where ψ is the untwisting isomorphism ψ(x', y') = (x'·ω², y'·ω³), is
//
//	l(P) = y_P − λ'·x_P·ω + (λ'·x_T − y_T)·ω³
//
// with slope λ' ∈ Fp2 on the twist. To avoid the Fp2 inversion that the
// affine slope would cost per step, T is tracked in Jacobian coordinates
// (X, Y, Z) and the line is stored scaled by its denominator d ∈ Fp2*
// (d = 2YZ³ for tangents, δZ for chords):
//
//	d·l(P) = a·y_P + b·x_P·ω + c·ω³
//
// In the Fp12 = Fp6[ω], Fp6 = Fp2[τ] tower (ω³ = τ·ω) this is the sparse
// element with c0 = (a·y_P, 0, 0) and c1 = (b·x_P, c, 0). The scalar d lies
// in Fp2, where the easy part of the final exponentiation kills it
// (d^(p⁶−1) = 1 since d^(p²) = d), so Pair's output is unchanged by the
// scaling.
//
// A vertical line X = x_T·ω² evaluates to l(P) = x_P − x_T·τ, i.e.
// c0 = (x_P, −x_T, 0), c1 = 0; it stores −x_T in c and leaves a, b unused.
type lineCoeff struct {
	vertical bool
	a        fp2 // coefficient of y_P (non-vertical lines only)
	b        fp2 // coefficient of x_P·ω (non-vertical lines only)
	c        fp2 // ω³ coefficient, or −x_T for verticals
}

// setVertical fills lc with the coefficients of the vertical line X = x_T·ω².
func (lc *lineCoeff) setVertical(xT *fp2) {
	lc.vertical = true
	lc.c.Neg(xT)
}

// evalLine multiplies f by the line described by lc evaluated at P. A
// non-vertical line is the sparse (a·y_P, 0, 0 | b·x_P, c, 0) and goes
// through mulByLine; the rare vertical line keeps the dense product.
func evalLine(f *fp12, lc *lineCoeff, P *G1) {
	if lc.vertical {
		var l fp12
		l.c0.c0.c0.Set(&P.x)
		l.c0.c1.Set(&lc.c)
		f.Mul(f, &l)
		return
	}
	var A, B fp2
	A.MulScalar(&lc.a, &P.y)
	B.MulScalar(&lc.b, &P.x)
	f.mulByLine(f, &A, &B, &lc.c)
}

// doubleStep computes the scaled tangent-line coefficients at the Jacobian
// point T and doubles T in place (dbl-2009-l formulas, a = 0). It reports
// false when no line is contributed (T at infinity). With T = (X, Y, Z) and
// M = 3X², the tangent scaled by 2YZ³ is
//
//	a = Z₃·Z²  (Z₃ = 2YZ), b = −M·Z², c = M·X − 2Y²
func doubleStep(lc *lineCoeff, T *g2Jac) bool {
	if T.z.IsZero() {
		return false
	}
	if T.y.IsZero() {
		// Tangent at a 2-torsion point is vertical; cannot happen for
		// points in the order-r subgroup but handled for robustness.
		// One inversion on this cold path to recover the affine x.
		var zz, xAff fp2
		zz.Square(&T.z)
		zz.Inverse(&zz)
		xAff.Mul(&T.x, &zz)
		lc.setVertical(&xAff)
		T.setInfinity()
		return true
	}
	var xx, yy, yyyy, zz, s, m, t fp2
	xx.Square(&T.x)
	yy.Square(&T.y)
	yyyy.Square(&yy)
	zz.Square(&T.z)
	// S = 2((X+YY)² − XX − YYYY)
	s.Add(&T.x, &yy)
	s.Square(&s)
	s.Sub(&s, &xx)
	s.Sub(&s, &yyyy)
	s.Double(&s)
	// M = 3XX
	m.Double(&xx)
	m.Add(&m, &xx)
	// Z3 = (Y+Z)² − YY − ZZ  (= 2YZ)
	var z3 fp2
	z3.Add(&T.y, &T.z)
	z3.Square(&z3)
	z3.Sub(&z3, &yy)
	z3.Sub(&z3, &zz)

	lc.vertical = false
	lc.a.Mul(&z3, &zz)
	lc.b.Mul(&m, &zz)
	lc.b.Neg(&lc.b)
	lc.c.Mul(&m, &T.x)
	t.Double(&yy)
	lc.c.Sub(&lc.c, &t)

	// X3 = M² − 2S; Y3 = M(S − X3) − 8YYYY
	var x3, y3 fp2
	x3.Square(&m)
	t.Double(&s)
	x3.Sub(&x3, &t)
	y3.Sub(&s, &x3)
	y3.Mul(&y3, &m)
	t.Double(&yyyy)
	t.Double(&t)
	t.Double(&t)
	y3.Sub(&y3, &t)
	T.x.Set(&x3)
	T.y.Set(&y3)
	T.z.Set(&z3)
	return true
}

// addStep computes the scaled coefficients of the line through T and the
// affine point Q, and sets T = T + Q in place (madd-2007-bl formulas). It
// reports false when no line is contributed (Q at infinity, or T at
// infinity so that the step is a plain assignment). With θ = y_Q·Z³ − Y and
// δ = x_Q·Z² − X, the chord scaled by δZ is
//
//	a = δ·Z, b = −θ, c = θ·x_Q − y_Q·a
func addStep(lc *lineCoeff, T *g2Jac, Q *G2) bool {
	if Q.inf {
		return false
	}
	if T.z.IsZero() {
		T.fromAffine(Q)
		return false
	}
	var zz, z3q, theta, delta fp2
	zz.Square(&T.z)
	z3q.Mul(&T.z, &zz)
	theta.Mul(&Q.y, &z3q)
	theta.Sub(&theta, &T.y)
	delta.Mul(&Q.x, &zz)
	delta.Sub(&delta, &T.x)
	if delta.IsZero() {
		if theta.IsZero() {
			return doubleStep(lc, T)
		}
		// T + (−T): vertical line X = x_Q.
		lc.setVertical(&Q.x)
		T.setInfinity()
		return true
	}

	lc.vertical = false
	lc.a.Mul(&delta, &T.z)
	lc.b.Neg(&theta)
	var t fp2
	lc.c.Mul(&theta, &Q.x)
	t.Mul(&Q.y, &lc.a)
	lc.c.Sub(&lc.c, &t)

	// Point update with H = δ and r = 2θ.
	var hh, i, jj, v, rr fp2
	rr.Double(&theta)
	hh.Square(&delta)
	i.Double(&hh)
	i.Double(&i)
	jj.Mul(&delta, &i)
	v.Mul(&T.x, &i)
	var x3, y3, z3 fp2
	x3.Square(&rr)
	x3.Sub(&x3, &jj)
	t.Double(&v)
	x3.Sub(&x3, &t)
	y3.Sub(&v, &x3)
	y3.Mul(&y3, &rr)
	t.Mul(&T.y, &jj)
	t.Double(&t)
	y3.Sub(&y3, &t)
	z3.Add(&T.z, &delta)
	z3.Square(&z3)
	z3.Sub(&z3, &zz)
	z3.Sub(&z3, &hh)
	T.x.Set(&x3)
	T.y.Set(&y3)
	T.z.Set(&z3)
	return true
}

// millerLoopNAF is the non-adjacent form of 6u+2, the optimal ate loop
// counter, least significant digit first. It has 22 nonzero digits where
// the binary form has 37 ones; init checks that the digits recombine to
// 6u+2 and that the top digit is 1.
var millerLoopNAF = wnaf(new(big.Int).Add(new(big.Int).Mul(u, big.NewInt(6)), big.NewInt(2)), 2)

// millerLoop computes the optimal ate Miller function f_{6u+2,Q}(P), up to
// factors that the final exponentiation removes: a signed-digit
// double-and-add ladder over millerLoopNAF followed by the two Frobenius
// line steps. A −1 digit adds −Q; the vertical lines the signed recurrence
// would divide by lie in Fp6 and are killed by the easy part, so the
// pairing is the one the binary ladder gives.
func millerLoop(P *G1, Q *G2) *fp12 {
	var f fp12
	f.SetOne()
	if P.inf || Q.inf {
		return &f
	}
	var T g2Jac
	T.fromAffine(Q)
	var minusQ G2
	minusQ.Neg(Q)
	var lc lineCoeff
	for i := len(millerLoopNAF) - 2; i >= 0; i-- {
		f.Square(&f)
		if doubleStep(&lc, &T) {
			evalLine(&f, &lc, P)
		}
		switch millerLoopNAF[i] {
		case 1:
			if addStep(&lc, &T, Q) {
				evalLine(&f, &lc, P)
			}
		case -1:
			if addStep(&lc, &T, &minusQ) {
				evalLine(&f, &lc, P)
			}
		}
	}

	// The two extra lines of the optimal ate pairing: Q1 = π(Q) and
	// Q2 = π²(Q); add Q1, then subtract Q2.
	var Q1, Q2, minusQ2 G2
	Q1.frobeniusTwist(Q)
	Q2.frobeniusTwist(&Q1)
	minusQ2.Neg(&Q2)

	if addStep(&lc, &T, &Q1) {
		evalLine(&f, &lc, P)
	}
	if addStep(&lc, &T, &minusQ2) {
		evalLine(&f, &lc, P)
	}
	return &f
}

// finalExponentiation raises the Miller-loop output to (p¹²−1)/r, mapping it
// into the order-r subgroup GT.
func finalExponentiation(f *fp12) *fp12 {
	// The hard part, exponent (p⁴−p²+1)/r, runs the Devegili et al.
	// addition chain; tests pin it to a generic exponentiation.
	return hardPartChain(easyPart(f))
}

// easyPart returns f^((p⁶−1)(p²+1)), which lies in the cyclotomic subgroup
// of order p⁴−p²+1 for every nonzero f.
func easyPart(f *fp12) *fp12 {
	var r, inv, t fp12
	inv.Inverse(f)
	r.Conjugate(f)
	r.Mul(&r, &inv) // f^(p⁶−1)
	t.FrobeniusP2(&r)
	r.Mul(&r, &t) // f^((p⁶−1)(p²+1))
	return &r
}

// uWindow is the recoding width of u. At width 4, u has 14 nonzero digits
// (24 in its NAF), so one u-power costs 63 cyclotomic squarings and 16
// multiplications, 3 of them for the table a, a³, a⁵, a⁷ (the NAF costs
// 62 and 23). Width 5 has 12 digits but a 7-multiplication table.
const uWindow = 4

// uNAF is the width-uWindow recoding of the BN parameter u, the exponent
// of the three expByU calls in every final exponentiation.
var uNAF = wnaf(u, uWindow)

// expByU sets dst = a^u for a in the cyclotomic subgroup and returns dst.
func expByU(dst, a *fp12) *fp12 {
	var tab [1 << (uWindow - 2)]fp12
	oddPowers(tab[:], a)
	return dst.cyclotomicMultiExp([][]fp12{tab[:]}, [][]int8{uNAF})
}

// hardPartChain computes m^((p⁴−p²+1)/r) with the addition chain of
// Devegili, Scott and Dahab ("Implementing cryptographic pairings over
// Barreto–Naehrig curves"), which replaces a ~1016-bit exponentiation by
// three u-power exponentiations plus a handful of multiplications and
// Frobenius maps. m is an easy-part output, so it and every intermediate
// lie in the cyclotomic subgroup and all squarings are cyclotomic.
func hardPartChain(m *fp12) *fp12 {
	var fp1, fp2v, fp3 fp12
	fp1.Frobenius(m)
	fp2v.FrobeniusP2(m)
	fp3.Frobenius(&fp2v)

	var fu, fu2, fu3 fp12
	expByU(&fu, m)
	expByU(&fu2, &fu)
	expByU(&fu3, &fu2)

	var y3 fp12
	y3.Frobenius(&fu) // fu^p
	var fu2p, fu3p fp12
	fu2p.Frobenius(&fu2)
	fu3p.Frobenius(&fu3)
	var y2 fp12
	y2.FrobeniusP2(&fu2)

	var y0 fp12
	y0.Mul(&fp1, &fp2v)
	y0.Mul(&y0, &fp3)

	var y1 fp12
	y1.Conjugate(m)

	var y5 fp12
	y5.Conjugate(&fu2)

	y3.Conjugate(&y3)

	var y4 fp12
	y4.Mul(&fu, &fu2p)
	y4.Conjugate(&y4)

	var y6 fp12
	y6.Mul(&fu3, &fu3p)
	y6.Conjugate(&y6)

	var t0, t1 fp12
	t0.cyclotomicSquare(&y6)
	t0.Mul(&t0, &y4)
	t0.Mul(&t0, &y5)
	t1.Mul(&y3, &y5)
	t1.Mul(&t1, &t0)
	t0.Mul(&t0, &y2)
	t1.cyclotomicSquare(&t1)
	t1.Mul(&t1, &t0)
	t1.cyclotomicSquare(&t1)
	t0.Mul(&t1, &y1)
	t1.Mul(&t1, &y0)
	t0.cyclotomicSquare(&t0)
	var out fp12
	out.Mul(&t0, &t1)
	return &out
}

// Pair computes the optimal ate pairing ê(P, Q). It is bilinear and
// non-degenerate on G1 × G2; ê(P, Q) = 1 if either input is the identity.
func Pair(P *G1, Q *G2) *GT {
	f := millerLoop(P, Q)
	var g GT
	g.v.Set(finalExponentiation(f))
	return &g
}

var (
	gtBaseOnce sync.Once
	gtBase     GT
)

// GTBase returns ê(G1gen, G2gen), the canonical generator of GT, computed
// once and cached.
func GTBase() *GT {
	gtBaseOnce.Do(func() {
		gtBase.Set(Pair(G1Generator(), G2Generator()))
	})
	var g GT
	g.Set(&gtBase)
	return &g
}

// GTExpBase returns ê(G1gen, G2gen)^k. It runs GT.Exp's endomorphism
// split on the lazily built width-6 tables of precompute.go.
func GTExpBase(k *big.Int) *GT {
	var g GT
	g.v.cyclotomicMultiExp(gtBaseTables(), split4.digits(k, gtBaseWindow))
	return &g
}
