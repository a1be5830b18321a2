package ga

import (
	"bytes"
	"testing"

	"typepre/internal/bn254"
	"typepre/internal/ibe"
)

type fixture struct {
	kgc1, kgc2 *ibe.KGC
	aliceKey   *ibe.PrivateKey
	bobKey     *ibe.PrivateKey
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	kgc1, err := ibe.Setup("kgc1", nil)
	if err != nil {
		t.Fatal(err)
	}
	kgc2, err := ibe.Setup("kgc2", nil)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{
		kgc1:     kgc1,
		kgc2:     kgc2,
		aliceKey: kgc1.Extract("alice@example.com"),
		bobKey:   kgc2.Extract("bob@example.com"),
	}
}

func randomGT(t *testing.T) *bn254.GT {
	t.Helper()
	m, err := bn254.RandomGT(nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestReEncryptionRoundTrip(t *testing.T) {
	f := newFixture(t)
	m := randomGT(t)
	ct, err := Encrypt(f.kgc1.Params(), "alice@example.com", m, nil)
	if err != nil {
		t.Fatal(err)
	}
	rk, err := RKGen(f.aliceKey, f.kgc2.Params(), "bob@example.com", nil)
	if err != nil {
		t.Fatal(err)
	}
	rct, err := ReEncrypt(rk, ct)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecryptReEncrypted(f.bobKey, rct)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatal("GA round trip failed")
	}
}

func TestDelegatorStillDecrypts(t *testing.T) {
	f := newFixture(t)
	m := randomGT(t)
	ct, _ := Encrypt(f.kgc1.Params(), "alice@example.com", m, nil)
	got, err := Decrypt(f.aliceKey, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatal("delegator cannot decrypt own ciphertext")
	}
}

func TestOneRekeyConvertsEverything(t *testing.T) {
	// The property the paper fixes: ANY ciphertext of Alice is converted by
	// a single rekey — there is no type separation to scope the delegation.
	f := newFixture(t)
	rk, _ := RKGen(f.aliceKey, f.kgc2.Params(), "bob@example.com", nil)
	for i := 0; i < 4; i++ {
		m := randomGT(t)
		ct, _ := Encrypt(f.kgc1.Params(), "alice@example.com", m, nil)
		rct, err := ReEncrypt(rk, ct)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := DecryptReEncrypted(f.bobKey, rct)
		if !got.Equal(m) {
			t.Fatalf("ciphertext %d not converted — GA should convert all", i)
		}
	}
}

func TestWrongDelegateeFails(t *testing.T) {
	f := newFixture(t)
	eveKey := f.kgc2.Extract("eve@example.com")
	m := randomGT(t)
	ct, _ := Encrypt(f.kgc1.Params(), "alice@example.com", m, nil)
	rk, _ := RKGen(f.aliceKey, f.kgc2.Params(), "bob@example.com", nil)
	rct, _ := ReEncrypt(rk, ct)
	got, _ := DecryptReEncrypted(eveKey, rct)
	if got.Equal(m) {
		t.Fatal("non-delegatee opened the ciphertext")
	}
}

func TestCollusionDoesNotRecoverMasterKey(t *testing.T) {
	// GA is collusion-safe in the same sense as the paper's scheme: the
	// pair (proxy, delegatee) recovers sk_id exactly — wait, without the
	// type exponent the recoverable value IS sk_id. Verify precisely that:
	// rk + H1(X)⁻¹ = sk⁻¹, so collusion recovers sk itself. This is why GA
	// restricts delegation to "all messages" trust decisions, while the
	// paper's type exponent keeps sk hidden (see core tests).
	f := newFixture(t)
	rk, _ := RKGen(f.aliceKey, f.kgc2.Params(), "bob@example.com", nil)
	x, err := ibe.Decrypt(f.bobKey, rk.EncX)
	if err != nil {
		t.Fatal(err)
	}
	// sk = (rk − H1(X))^(−1) in additive notation: recover and compare.
	var recovered bn254.G1
	recovered.Neg(hashX(x))
	recovered.Add(rk.RK, &recovered) // sk⁻¹ = −sk
	recovered.Neg(&recovered)
	if !equalG1(&recovered, f.aliceKey.SK) {
		t.Fatal("GA collusion algebra mismatch: expected delegation key recovery")
	}
}

func hashX(x *bn254.GT) *bn254.G1 {
	return bn254.HashToG1(bn254.DomainG1+"/gt", x.Marshal())
}

func TestNilInputs(t *testing.T) {
	f := newFixture(t)
	if _, err := ReEncrypt(nil, nil); err == nil {
		t.Fatal("nil inputs accepted")
	}
	if _, err := DecryptReEncrypted(f.bobKey, nil); err == nil {
		t.Fatal("nil reciphertext accepted")
	}
}

// equalG1 compares two G1 points by their canonical encodings.
func equalG1(a, b *bn254.G1) bool { return bytes.Equal(a.Marshal(), b.Marshal()) }
