package bn254

import (
	"math/big"
	"math/rand"
	"testing"
)

// A candidate for a correct G2 membership check, measured here before it
// replaces IsInSubgroup (which computes ScalarMult(p, Order), and the
// ladder reduces Order to 0, so it accepts every on-twist point).

// isInSubgroupPsi reports whether the on-twist point q lies in the order-r
// subgroup by the ψ test of Dai, Lin, Zhao and Zhou (ePrint 2022/348) and
// El Housni, Guillevic and Piellard (ePrint 2022/352):
//
//	[u+1]q + ψ([u]q) + ψ²([u]q) = ψ³([2u]q).
//
// On G2, ψ is [λ] with λ = 6u², and u+1 + uλ + uλ² − 2uλ³ ≡ 0 (mod r), so
// members pass; the papers show that no other point does. It costs one
// 63-bit ladder instead of a 254-bit one.
func isInSubgroupPsi(q *G2) bool {
	if q.inf {
		return true
	}
	var a, b, c, d G2
	scalarMultJacobianG2(&a, q, u) // u < r, so the ladder's reduction is moot
	b.frobeniusTwist(&a)
	c.frobeniusTwist(&b)
	d.frobeniusTwist(&c)
	d.Neg(&d)
	var acc g2Jac
	acc.fromAffine(q)
	for _, t := range []*G2{&a, &b, &c, &d, &d} {
		if !t.inf {
			acc.addMixed(t)
		}
	}
	return acc.z.IsZero()
}

// isInSubgroupOrder is the oracle: [r−1]q + q = ∞.
func isInSubgroupOrder(q *G2) bool {
	var t G2
	t.ScalarMult(q, new(big.Int).Sub(Order, big.NewInt(1)))
	t.Add(&t, q)
	return t.IsInfinity()
}

// randTwistPoint returns a random point of the twist E'(Fp2), which lies
// outside G2 but for a negligible fraction of draws.
func randTwistPoint(r *rand.Rand) *G2 {
	for {
		var p G2
		p.x.Set(randFp2(r))
		var rhs fp2
		rhs.Square(&p.x)
		rhs.Mul(&rhs, &p.x)
		rhs.Add(&rhs, &twistB)
		if p.y.Sqrt(&rhs) {
			return &p
		}
	}
}

func TestG2SubgroupCheckPsi(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	members := []*G2{G2Infinity(), G2Generator()}
	for i := 0; i < 6; i++ {
		members = append(members, randG2(r))
	}
	for i, q := range members {
		if !isInSubgroupOrder(q) || !isInSubgroupPsi(q) {
			t.Fatalf("member %d rejected", i)
		}
	}
	for i := 0; i < 12; i++ {
		q := randTwistPoint(r)
		if !q.IsOnCurve() {
			t.Fatal("random twist point is off the curve")
		}
		if want, got := isInSubgroupOrder(q), isInSubgroupPsi(q); got != want {
			t.Fatalf("twist point %d: ψ test %v, oracle %v", i, got, want)
		}
		if isInSubgroupPsi(q) {
			t.Fatalf("twist point %d outside G2 accepted", i)
		}
	}
}

// TestGeneratorCheck feeds the init check of the G2 generator points of
// G2, which it must accept, and on-twist points outside G2, which it must
// reject: the [r]q = ∞ check it replaced accepted both.
func TestGeneratorCheck(t *testing.T) {
	r := rand.New(rand.NewSource(72))
	for i, q := range []*G2{G2Generator(), randG2(r), randG2(r)} {
		if !psiIsLambda(q) {
			t.Fatalf("member %d rejected", i)
		}
	}
	for i := 0; i < 8; i++ {
		q := randTwistPoint(r)
		if isInSubgroupOrder(q) {
			continue // a negligible chance; the oracle rules
		}
		if psiIsLambda(q) {
			t.Fatalf("twist point %d outside G2 accepted", i)
		}
	}
}

func BenchmarkG2SubgroupCheckPsi(b *testing.B) {
	var q G2
	q.ScalarBaseMult(benchScalar())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		isInSubgroupPsi(&q)
	}
}

func BenchmarkG2SubgroupCheckOrder(b *testing.B) {
	var q G2
	q.ScalarBaseMult(benchScalar())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		isInSubgroupOrder(&q)
	}
}
