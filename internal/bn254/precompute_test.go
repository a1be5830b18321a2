package bn254

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"
)

// randG1 returns a pseudo-random non-identity subgroup point of G1.
func randG1(r *rand.Rand) *G1 {
	k := new(big.Int).Rand(r, Order)
	k.Add(k, big.NewInt(1))
	var p G1
	p.ScalarBaseMult(k)
	return &p
}

// randG2 returns a pseudo-random non-identity subgroup point of G2.
func randG2(r *rand.Rand) *G2 {
	k := new(big.Int).Rand(r, Order)
	k.Add(k, big.NewInt(1))
	var p G2
	p.ScalarBaseMult(k)
	return &p
}

// edgeScalars are the scalars most likely to break a windowed recoding or
// the endomorphism split: identity-adjacent values, the group order, and
// out-of-range inputs that exercise the modular reduction.
func edgeScalars() []*big.Int {
	return []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(2),
		big.NewInt(15),
		big.NewInt(16),
		big.NewInt(-1),
		new(big.Int).Set(Order),
		new(big.Int).Sub(Order, big.NewInt(1)),
		new(big.Int).Add(Order, big.NewInt(7)),
		new(big.Int).Lsh(big.NewInt(1), 253),
	}
}

func testScalars(seed int64, extra int) []*big.Int {
	ks := edgeScalars()
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < extra; i++ {
		ks = append(ks, new(big.Int).Rand(r, Order))
	}
	return ks
}

// TestG1FixedBaseMatchesGeneric pins the endomorphism split against the
// generic ladder, including the zero scalar and k ≡ 0 (mod r).
func TestG1FixedBaseMatchesGeneric(t *testing.T) {
	for _, k := range testScalars(46, 8) {
		var got, want G1
		got.ScalarBaseMult(k)
		want.scalarBaseMultGeneric(k)
		if !got.Equal(&want) {
			t.Fatalf("k=%s: fixed-base G1 != generic", k)
		}
		if k.Mod(new(big.Int).Set(k), Order).Sign() == 0 && !got.IsInfinity() {
			t.Fatalf("k=%s: expected infinity", k)
		}
	}
}

// TestG2FixedBaseMatchesGeneric is the G2 analogue.
func TestG2FixedBaseMatchesGeneric(t *testing.T) {
	for _, k := range testScalars(47, 8) {
		var got, want G2
		got.ScalarBaseMult(k)
		want.scalarBaseMultGeneric(k)
		if !got.Equal(&want) {
			t.Fatalf("k=%s: fixed-base G2 != generic", k)
		}
	}
}

// TestGTExpBaseMatchesGeneric pins GTExpBase's fixed tables against
// GT.Exp's per-call ones.
func TestGTExpBaseMatchesGeneric(t *testing.T) {
	base := GTBase()
	for _, k := range testScalars(48, 8) {
		got := GTExpBase(k)
		var want GT
		want.Exp(base, k)
		if !got.Equal(&want) {
			t.Fatalf("k=%s: GTExpBase != GTBase^k", k)
		}
	}
}

// TestPreparedConcurrent exercises the lazy fixed-base table guards from
// many goroutines; run with -race to check the sync.Once wiring.
func TestPreparedConcurrent(t *testing.T) {
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(seed int64) {
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 3; i++ {
				k := new(big.Int).Rand(r, Order)
				var a, b G2
				a.ScalarBaseMult(k)
				b.scalarBaseMultGeneric(k)
				if !a.Equal(&b) {
					done <- fmt.Errorf("seed %d: concurrent fixed-base mismatch", seed)
					return
				}
				if !GTExpBase(k).Equal(new(GT).Exp(GTBase(), k)) {
					done <- fmt.Errorf("seed %d: concurrent GT table mismatch", seed)
					return
				}
			}
			done <- nil
		}(int64(100 + g))
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
