package bbs

import (
	"bytes"
	"math/big"
	"testing"

	"typepre/internal/bn254"
)

func randomG1(t *testing.T) *bn254.G1 {
	t.Helper()
	k, err := bn254.RandomScalar(nil)
	if err != nil {
		t.Fatal(err)
	}
	var p bn254.G1
	p.ScalarBaseMult(k)
	return &p
}

func TestEncryptDecrypt(t *testing.T) {
	kp, err := KeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	m := randomG1(t)
	ct, err := Encrypt(kp.PK, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decrypt(kp.SK, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !equalG1(got, m) {
		t.Fatal("round trip failed")
	}
}

func TestWrongKeyFails(t *testing.T) {
	alice, _ := KeyGen(nil)
	eve, _ := KeyGen(nil)
	m := randomG1(t)
	ct, err := Encrypt(alice.PK, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decrypt(eve.SK, ct)
	if err != nil {
		t.Fatal(err)
	}
	if equalG1(got, m) {
		t.Fatal("wrong key decrypted the message")
	}
}

func TestReEncryption(t *testing.T) {
	alice, _ := KeyGen(nil)
	bob, _ := KeyGen(nil)
	m := randomG1(t)

	ct, err := Encrypt(alice.PK, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	rk, err := ReKey(alice, bob)
	if err != nil {
		t.Fatal(err)
	}
	rct, err := ReEncrypt(rk, ct)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decrypt(bob.SK, rct)
	if err != nil {
		t.Fatal(err)
	}
	if !equalG1(got, m) {
		t.Fatal("re-encryption round trip failed")
	}
	// Alice can no longer open the transformed ciphertext directly.
	back, _ := Decrypt(alice.SK, rct)
	if equalG1(back, m) {
		t.Fatal("delegator key still opens the re-encrypted ciphertext")
	}
}

func TestBidirectional(t *testing.T) {
	alice, _ := KeyGen(nil)
	bob, _ := KeyGen(nil)
	m := randomG1(t)

	rk, err := ReKey(alice, bob)
	if err != nil {
		t.Fatal(err)
	}
	back, err := InvertReKey(rk)
	if err != nil {
		t.Fatal(err)
	}
	// The inverted key converts Bob's ciphertexts to Alice's — the
	// bidirectional property the paper flags as sometimes undesirable.
	ctBob, err := Encrypt(bob.PK, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	rct, err := ReEncrypt(back, ctBob)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decrypt(alice.SK, rct)
	if err != nil {
		t.Fatal(err)
	}
	if !equalG1(got, m) {
		t.Fatal("bidirectional conversion failed")
	}
}

func TestCollusionRecoversDelegatorKey(t *testing.T) {
	alice, _ := KeyGen(nil)
	bob, _ := KeyGen(nil)
	rk, err := ReKey(alice, bob)
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := CollusionAttack(rk, bob.SK)
	if err != nil {
		t.Fatal(err)
	}
	if recovered.Cmp(alice.SK) != 0 {
		t.Fatal("collusion attack should recover the delegator's secret in BBS")
	}
}

func TestRekeyConvertsAllCiphertexts(t *testing.T) {
	// The all-or-nothing property: a single rekey converts every message,
	// with no way to scope it to a category.
	alice, _ := KeyGen(nil)
	bob, _ := KeyGen(nil)
	rk, _ := ReKey(alice, bob)
	for i := 0; i < 4; i++ {
		m := randomG1(t)
		ct, _ := Encrypt(alice.PK, m, nil)
		rct, err := ReEncrypt(rk, ct)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := Decrypt(bob.SK, rct)
		if !equalG1(got, m) {
			t.Fatalf("ciphertext %d not converted", i)
		}
	}
}

func TestNilInputs(t *testing.T) {
	if _, err := Decrypt(nil, &Ciphertext{}); err == nil {
		t.Fatal("nil secret accepted")
	}
	if _, err := ReEncrypt(nil, nil); err == nil {
		t.Fatal("nil inputs accepted")
	}
	if _, err := ReKey(nil, nil); err == nil {
		t.Fatal("nil key pairs accepted")
	}
	if _, err := Decrypt(big.NewInt(7), nil); err == nil {
		t.Fatal("nil ciphertext accepted")
	}
}

// equalG1 compares two G1 points by their canonical encodings.
func equalG1(a, b *bn254.G1) bool { return bytes.Equal(a.Marshal(), b.Marshal()) }
