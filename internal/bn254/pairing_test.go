package bn254

import (
	"bytes"
	"fmt"
	"math/big"
	"math/rand"
	"testing"
)

func TestGeneratorsValid(t *testing.T) {
	if !G1Generator().IsOnCurve() {
		t.Fatal("G1 generator not on curve")
	}
	if !G2Generator().IsOnCurve() {
		t.Fatal("G2 generator not on twist")
	}
	if !G2Generator().IsInSubgroup() {
		t.Fatal("G2 generator not in subgroup")
	}
	var p G1
	p.ScalarBaseMult(Order)
	if !p.IsInfinity() {
		t.Fatal("r·G1 != ∞")
	}
}

func TestG1GroupLaws(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	a := new(big.Int).Rand(r, Order)
	b := new(big.Int).Rand(r, Order)

	var pa, pb, sum1, sum2 G1
	pa.ScalarBaseMult(a)
	pb.ScalarBaseMult(b)
	sum1.Add(&pa, &pb)
	sum2.ScalarBaseMult(new(big.Int).Add(a, b))
	if !sum1.Equal(&sum2) {
		t.Fatal("aG + bG != (a+b)G in G1")
	}

	// Commutativity and identity.
	var sum3 G1
	sum3.Add(&pb, &pa)
	if !sum1.Equal(&sum3) {
		t.Fatal("G1 addition not commutative")
	}
	var inf G1
	inf.inf = true
	var same G1
	same.Add(&pa, &inf)
	if !same.Equal(&pa) {
		t.Fatal("P + ∞ != P")
	}

	// P + (−P) = ∞.
	var neg, z G1
	neg.Neg(&pa)
	z.Add(&pa, &neg)
	if !z.IsInfinity() {
		t.Fatal("P + (−P) != ∞")
	}

	// Double vs add.
	var dbl, add G1
	dbl.Double(&pa)
	add.Add(&pa, &pa)
	if !dbl.Equal(&add) {
		t.Fatal("2P != P+P")
	}
	if !dbl.IsOnCurve() {
		t.Fatal("2P not on curve")
	}
}

func TestG2GroupLaws(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	a := new(big.Int).Rand(r, Order)
	b := new(big.Int).Rand(r, Order)

	var pa, pb, sum1, sum2 G2
	pa.ScalarBaseMult(a)
	pb.ScalarBaseMult(b)
	sum1.Add(&pa, &pb)
	sum2.ScalarBaseMult(new(big.Int).Add(a, b))
	if !sum1.Equal(&sum2) {
		t.Fatal("aG + bG != (a+b)G in G2")
	}
	if !sum1.IsOnCurve() {
		t.Fatal("sum not on twist")
	}

	var neg, z G2
	neg.Neg(&pa)
	z.Add(&pa, &neg)
	if !z.IsInfinity() {
		t.Fatal("P + (−P) != ∞ in G2")
	}
}

func TestPairingNonDegenerate(t *testing.T) {
	g := Pair(G1Generator(), G2Generator())
	if g.IsOne() {
		t.Fatal("ê(G1, G2) == 1: degenerate pairing")
	}
	if !g.IsInSubgroup() {
		t.Fatal("pairing output not in order-r subgroup")
	}
}

func TestPairingBilinear(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 3; i++ {
		a := new(big.Int).Rand(r, Order)
		b := new(big.Int).Rand(r, Order)

		var pa G1
		pa.ScalarBaseMult(a)
		var qb G2
		qb.ScalarBaseMult(b)

		lhs := Pair(&pa, &qb)

		base := Pair(G1Generator(), G2Generator())
		var rhs GT
		rhs.Exp(base, new(big.Int).Mul(a, b))

		if !lhs.Equal(&rhs) {
			t.Fatalf("ê(aP, bQ) != ê(P,Q)^(ab), iteration %d", i)
		}
	}
}

func TestPairingLeftLinear(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	a := new(big.Int).Rand(r, Order)
	b := new(big.Int).Rand(r, Order)
	var pa, pb, sum G1
	pa.ScalarBaseMult(a)
	pb.ScalarBaseMult(b)
	sum.Add(&pa, &pb)

	q := G2Generator()
	lhs := Pair(&sum, q)
	var rhs GT
	rhs.Mul(Pair(&pa, q), Pair(&pb, q))
	if !lhs.Equal(&rhs) {
		t.Fatal("ê(P1+P2, Q) != ê(P1,Q)·ê(P2,Q)")
	}
}

func TestPairingRightLinear(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	a := new(big.Int).Rand(r, Order)
	b := new(big.Int).Rand(r, Order)
	var qa, qb, sum G2
	qa.ScalarBaseMult(a)
	qb.ScalarBaseMult(b)
	sum.Add(&qa, &qb)

	p := G1Generator()
	lhs := Pair(p, &sum)
	var rhs GT
	rhs.Mul(Pair(p, &qa), Pair(p, &qb))
	if !lhs.Equal(&rhs) {
		t.Fatal("ê(P, Q1+Q2) != ê(P,Q1)·ê(P,Q2)")
	}
}

func TestPairingIdentity(t *testing.T) {
	if !Pair(G1Infinity(), G2Generator()).IsOne() {
		t.Fatal("ê(∞, Q) != 1")
	}
	if !Pair(G1Generator(), G2Infinity()).IsOne() {
		t.Fatal("ê(P, ∞) != 1")
	}
}

func TestHardPartImplementationsAgree(t *testing.T) {
	// The Devegili addition chain and the direct exponentiation must
	// compute the same hard part on real Miller-loop outputs.
	r := rand.New(rand.NewSource(6))
	for i := 0; i < 2; i++ {
		a := new(big.Int).Rand(r, Order)
		var pa G1
		pa.ScalarBaseMult(a)
		easy := easyPart(millerLoop(&pa, G2Generator()))
		chain := hardPartChain(easy)
		direct := hardPartDirect(easy)
		if !chain.Equal(direct) {
			t.Fatal("hard-part addition chain disagrees with direct exponentiation")
		}
	}
}

// TestPairMatchesReference pins the production pairing, the signed-digit
// Miller loop with the addition-chain final exponentiation, to the oracle
// path: the binary-digit Miller loop, the easy part and a generic
// exponentiation by (p⁴−p²+1)/r. Random points on both sides, their
// negations and the identities.
func TestPairMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	type pair struct {
		name string
		p    *G1
		q    *G2
	}
	cases := []pair{
		{"generators", G1Generator(), G2Generator()},
		{"inf-left", G1Infinity(), G2Generator()},
		{"inf-right", G1Generator(), G2Infinity()},
		{"inf-both", G1Infinity(), G2Infinity()},
	}
	for i := 0; i < 3; i++ {
		var p, np G1
		var q, nq G2
		p.ScalarBaseMult(new(big.Int).Rand(r, Order))
		q.ScalarBaseMult(new(big.Int).Rand(r, Order))
		np.Neg(&p)
		nq.Neg(&q)
		cases = append(cases,
			pair{fmt.Sprintf("random-%d", i), &p, &q},
			pair{fmt.Sprintf("random-%d-neg-q", i), &p, &nq},
			pair{fmt.Sprintf("random-%d-neg-p", i), &np, &q})
	}
	for _, c := range cases {
		want := pairReference(c.p, c.q)
		if got := finalExponentiation(millerLoop(c.p, c.q)); !got.Equal(want) {
			t.Errorf("%s: finalExponentiation(millerLoop) != reference", c.name)
		}
		if got := Pair(c.p, c.q); !got.v.Equal(want) {
			t.Errorf("%s: Pair != reference", c.name)
		}
	}
}

func TestG1MarshalRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 5; i++ {
		var p, q G1
		p.ScalarBaseMult(new(big.Int).Rand(r, Order))
		data := p.Marshal()
		if err := q.Unmarshal(data); err != nil {
			t.Fatal(err)
		}
		if !p.Equal(&q) {
			t.Fatal("G1 round trip mismatch")
		}
	}
	// Infinity round trip.
	var inf, got G1
	inf.inf = true
	if err := got.Unmarshal(inf.Marshal()); err != nil || !got.IsInfinity() {
		t.Fatal("G1 infinity round trip failed")
	}
}

func TestG1UnmarshalRejectsInvalid(t *testing.T) {
	var p G1
	if err := p.Unmarshal(make([]byte, 7)); err == nil {
		t.Fatal("accepted bad length")
	}
	bad := make([]byte, G1Size)
	bad[31] = 5 // x=5
	bad[63] = 1 // y=1, not on curve
	if err := p.Unmarshal(bad); err == nil {
		t.Fatal("accepted off-curve point")
	}
	// Out of range coordinate.
	tooBig := make([]byte, G1Size)
	copy(tooBig[:32], P.Bytes())
	tooBig[63] = 2
	if err := p.Unmarshal(tooBig); err == nil {
		t.Fatal("accepted out-of-range coordinate")
	}
}

func TestG2MarshalRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 3; i++ {
		var p, q G2
		p.ScalarBaseMult(new(big.Int).Rand(r, Order))
		if err := q.Unmarshal(p.Marshal()); err != nil {
			t.Fatal(err)
		}
		if !p.Equal(&q) {
			t.Fatal("G2 round trip mismatch")
		}
	}
	var inf, got G2
	inf.inf = true
	if err := got.Unmarshal(inf.Marshal()); err != nil || !got.IsInfinity() {
		t.Fatal("G2 infinity round trip failed")
	}
}

func TestG2UnmarshalRejectsInvalid(t *testing.T) {
	var p G2
	if err := p.Unmarshal(make([]byte, 3)); err == nil {
		t.Fatal("accepted bad length")
	}
	bad := make([]byte, G2Size)
	bad[31] = 1
	bad[127] = 1
	if err := p.Unmarshal(bad); err == nil {
		t.Fatal("accepted off-twist point")
	}
}

func TestGTMarshalRoundTrip(t *testing.T) {
	g := Pair(G1Generator(), G2Generator())
	var got GT
	if err := got.Unmarshal(g.Marshal()); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(g) {
		t.Fatal("GT round trip mismatch")
	}
	if !bytes.Equal(got.Marshal(), g.Marshal()) {
		t.Fatal("GT re-marshal mismatch")
	}
}

func TestGTUnmarshalRejectsInvalid(t *testing.T) {
	var g GT
	if err := g.Unmarshal(make([]byte, 5)); err == nil {
		t.Fatal("accepted bad length")
	}
	bad := make([]byte, GTSize)
	copy(bad[:32], P.Bytes()) // coefficient == p, out of range
	if err := g.Unmarshal(bad); err == nil {
		t.Fatal("accepted out-of-range coefficient")
	}
}

func TestGTGroupOps(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	a := new(big.Int).Rand(r, Order)
	b := new(big.Int).Rand(r, Order)
	base := GTBase()

	var ga, gb, prod, sum GT
	ga.Exp(base, a)
	gb.Exp(base, b)
	prod.Mul(&ga, &gb)
	sum.Exp(base, new(big.Int).Add(a, b))
	if !prod.Equal(&sum) {
		t.Fatal("GT exponent homomorphism broken")
	}

	var inv, one GT
	inv.Inverse(&ga)
	one.Mul(&ga, &inv)
	if !one.IsOne() {
		t.Fatal("g·g⁻¹ != 1")
	}

	var div GT
	div.Div(&prod, &gb)
	if !div.Equal(&ga) {
		t.Fatal("GT division broken")
	}
}

func TestHashToG1(t *testing.T) {
	p := HashToG1(DomainG1, []byte("alice@example.com"))
	if !p.IsOnCurve() || p.IsInfinity() {
		t.Fatal("hash output invalid")
	}
	q := HashToG1(DomainG1, []byte("alice@example.com"))
	if !p.Equal(q) {
		t.Fatal("hash not deterministic")
	}
	r2 := HashToG1(DomainG1, []byte("bob@example.com"))
	if p.Equal(r2) {
		t.Fatal("distinct messages hashed to same point")
	}
	r3 := HashToG1("other-domain", []byte("alice@example.com"))
	if p.Equal(r3) {
		t.Fatal("domain separation failed")
	}
	// Cofactor 1: point must have order r.
	var z G1
	z.ScalarMult(p, Order)
	if !z.IsInfinity() {
		t.Fatal("hashed point not of order r")
	}
}

func TestHashToZr(t *testing.T) {
	a := HashToZr(DomainZr, []byte("type:illness-history"))
	if a.Sign() <= 0 || a.Cmp(Order) >= 0 {
		t.Fatal("HashToZr out of range")
	}
	b := HashToZr(DomainZr, []byte("type:illness-history"))
	if a.Cmp(b) != 0 {
		t.Fatal("HashToZr not deterministic")
	}
	c := HashToZr(DomainZr, []byte("type:food-stats"))
	if a.Cmp(c) == 0 {
		t.Fatal("collision between distinct types")
	}
}

func TestRandomScalar(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 16; i++ {
		k, err := RandomScalar(nil)
		if err != nil {
			t.Fatal(err)
		}
		if k.Sign() <= 0 || k.Cmp(Order) >= 0 {
			t.Fatal("scalar out of range")
		}
		seen[k.String()] = true
	}
	if len(seen) < 16 {
		t.Fatal("random scalars repeated suspiciously")
	}
}

func TestRandomGT(t *testing.T) {
	g, k, err := RandomGT(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := GTExpBase(k)
	if !g.Equal(want) {
		t.Fatal("RandomGT witness exponent mismatch")
	}
	if !g.IsInSubgroup() {
		t.Fatal("RandomGT output not in subgroup")
	}
}

func TestKDFDeterministicAndLength(t *testing.T) {
	g := GTBase()
	k1 := KDF(DomainKDF, g, 32)
	k2 := KDF(DomainKDF, g, 32)
	if !bytes.Equal(k1, k2) {
		t.Fatal("KDF not deterministic")
	}
	if len(KDF(DomainKDF, g, 100)) != 100 {
		t.Fatal("KDF length wrong")
	}
	other := GTExpBase(big.NewInt(2))
	if bytes.Equal(k1, KDF(DomainKDF, other, 32)) {
		t.Fatal("KDF collision for distinct elements")
	}
	if bytes.Equal(k1, KDF("another-domain", g, 32)) {
		t.Fatal("KDF domain separation failed")
	}
}
