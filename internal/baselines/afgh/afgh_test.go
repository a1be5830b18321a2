package afgh

import (
	"testing"

	"typepre/internal/bn254"
)

func randomGT(t *testing.T) *bn254.GT {
	t.Helper()
	m, err := bn254.RandomGT(nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSecondLevelRoundTrip(t *testing.T) {
	kp, err := KeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	m := randomGT(t)
	ct, err := EncryptSecondLevel(kp, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecryptSecondLevel(kp.SK, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatal("second-level round trip failed")
	}
}

func TestFirstLevelRoundTrip(t *testing.T) {
	kp, _ := KeyGen(nil)
	m := randomGT(t)
	ct, err := EncryptFirstLevel(kp, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecryptFirstLevel(kp.SK, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatal("first-level round trip failed")
	}
}

func TestReEncryption(t *testing.T) {
	alice, _ := KeyGen(nil)
	bob, _ := KeyGen(nil)
	m := randomGT(t)

	ct, err := EncryptSecondLevel(alice, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Non-interactive: rekey needs only Bob's public key.
	rk, err := ReKey(alice.SK, bob.PK2)
	if err != nil {
		t.Fatal(err)
	}
	rct, err := ReEncrypt(rk, ct)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecryptFirstLevel(bob.SK, rct)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatal("re-encryption round trip failed")
	}
}

func TestUnidirectional(t *testing.T) {
	// rk_{a→b} must not convert Bob's ciphertexts toward Alice.
	alice, _ := KeyGen(nil)
	bob, _ := KeyGen(nil)
	m := randomGT(t)

	rk, _ := ReKey(alice.SK, bob.PK2)
	ctBob, _ := EncryptSecondLevel(bob, m, nil)
	rct, err := ReEncrypt(rk, ctBob)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := DecryptFirstLevel(alice.SK, rct)
	if got.Equal(m) {
		t.Fatal("rekey worked in the reverse direction")
	}
}

func TestWrongDelegateeFails(t *testing.T) {
	alice, _ := KeyGen(nil)
	bob, _ := KeyGen(nil)
	eve, _ := KeyGen(nil)
	m := randomGT(t)

	ct, _ := EncryptSecondLevel(alice, m, nil)
	rk, _ := ReKey(alice.SK, bob.PK2)
	rct, _ := ReEncrypt(rk, ct)
	got, _ := DecryptFirstLevel(eve.SK, rct)
	if got.Equal(m) {
		t.Fatal("non-delegatee opened the re-encrypted ciphertext")
	}
}

func TestFirstLevelNotDelegatable(t *testing.T) {
	// Re-encryption applies only to second-level ciphertexts; a first-level
	// ciphertext has a GT first component and cannot even be fed to
	// ReEncrypt. This is the two-level design cost the paper avoids.
	alice, _ := KeyGen(nil)
	m := randomGT(t)
	ct1, _ := EncryptFirstLevel(alice, m, nil)
	// The type system enforces the separation; verify the decryption of a
	// first-level ciphertext by a non-owner fails algebraically too.
	bob, _ := KeyGen(nil)
	got, _ := DecryptFirstLevel(bob.SK, ct1)
	if got.Equal(m) {
		t.Fatal("non-owner opened a first-level ciphertext")
	}
}

func TestCollusionRecoversOnlyWeakKey(t *testing.T) {
	alice, _ := KeyGen(nil)
	bob, _ := KeyGen(nil)
	m := randomGT(t)

	rk, _ := ReKey(alice.SK, bob.PK2)
	weak, err := CollusionRecoverWeakKey(rk, bob.SK)
	if err != nil {
		t.Fatal(err)
	}
	// Weak key opens second-level ciphertexts...
	ct2, _ := EncryptSecondLevel(alice, m, nil)
	got, err := DecryptSecondLevelWithWeakKey(weak, ct2)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatal("weak key failed on second-level ciphertext")
	}
	// ...but NOT first-level ones (master secret stays safe). The weak key
	// is a G2 element and a first-level ciphertext lives entirely in GT, so
	// the only conceivable use is pairing against something — and there is
	// no G1 handle carrying the secret. Verify the weak key is not simply
	// the master public key image g₂^a.
	var weakAsSecret bn254.G2
	weakAsSecret.ScalarBaseMult(alice.SK)
	if weak.Equal(&weakAsSecret) {
		t.Fatal("weak key equals the master public key image")
	}
}

func TestRekeyConvertsAllSecondLevel(t *testing.T) {
	alice, _ := KeyGen(nil)
	bob, _ := KeyGen(nil)
	rk, _ := ReKey(alice.SK, bob.PK2)
	for i := 0; i < 3; i++ {
		m := randomGT(t)
		ct, _ := EncryptSecondLevel(alice, m, nil)
		rct, err := ReEncrypt(rk, ct)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := DecryptFirstLevel(bob.SK, rct)
		if !got.Equal(m) {
			t.Fatalf("ciphertext %d not converted", i)
		}
	}
}

func TestNilInputs(t *testing.T) {
	if _, err := DecryptSecondLevel(nil, nil); err == nil {
		t.Fatal("nil inputs accepted")
	}
	if _, err := DecryptFirstLevel(nil, nil); err == nil {
		t.Fatal("nil inputs accepted")
	}
	if _, err := ReEncrypt(nil, nil); err == nil {
		t.Fatal("nil inputs accepted")
	}
	if _, err := DecryptSecondLevelWithWeakKey(nil, nil); err == nil {
		t.Fatal("nil inputs accepted")
	}
}
