package ibe

import (
	"bytes"
	"testing"

	"typepre/internal/bn254"
)

func setupKGC(t *testing.T) *KGC {
	t.Helper()
	kgc, err := Setup("test-kgc", nil)
	if err != nil {
		t.Fatal(err)
	}
	return kgc
}

func randomGT(t *testing.T) *bn254.GT {
	t.Helper()
	m, err := bn254.RandomGT(nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestEncryptDecrypt(t *testing.T) {
	kgc := setupKGC(t)
	sk := kgc.Extract("alice@example.com")
	m := randomGT(t)

	ct, err := Encrypt(kgc.Params(), "alice@example.com", m, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decrypt(sk, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatal("Decrypt(Encrypt(m)) != m")
	}
}

func TestWrongIdentityCannotDecrypt(t *testing.T) {
	kgc := setupKGC(t)
	skBob := kgc.Extract("bob@example.com")
	m := randomGT(t)

	ct, err := Encrypt(kgc.Params(), "alice@example.com", m, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decrypt(skBob, ct)
	if err != nil {
		t.Fatal(err)
	}
	if got.Equal(m) {
		t.Fatal("wrong identity decrypted the message")
	}
}

func TestWrongKGCCannotDecrypt(t *testing.T) {
	kgc1 := setupKGC(t)
	kgc2, err := Setup("other-kgc", nil)
	if err != nil {
		t.Fatal(err)
	}
	skOther := kgc2.Extract("alice@example.com") // same id, other master key
	m := randomGT(t)

	ct, err := Encrypt(kgc1.Params(), "alice@example.com", m, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decrypt(skOther, ct)
	if err != nil {
		t.Fatal(err)
	}
	if got.Equal(m) {
		t.Fatal("key from a different KGC decrypted the message")
	}
}

func TestCiphertextsRandomized(t *testing.T) {
	kgc := setupKGC(t)
	m := randomGT(t)
	ct1, err := Encrypt(kgc.Params(), "alice@example.com", m, nil)
	if err != nil {
		t.Fatal(err)
	}
	ct2, err := Encrypt(kgc.Params(), "alice@example.com", m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ct1.Marshal(), ct2.Marshal()) {
		t.Fatal("two encryptions of the same message are identical")
	}
}

func TestExtractDeterministic(t *testing.T) {
	kgc := setupKGC(t)
	sk1 := kgc.Extract("alice@example.com")
	sk2 := kgc.Extract("alice@example.com")
	if !equalG1(sk1.SK, sk2.SK) {
		t.Fatal("Extract not deterministic")
	}
	sk3 := kgc.Extract("bob@example.com")
	if equalG1(sk1.SK, sk3.SK) {
		t.Fatal("distinct identities share a private key")
	}
}

func TestPrivateKeyConsistency(t *testing.T) {
	// ê(sk_id, g₂) == ê(H1(id), pk): the key really is H1(id)^α.
	kgc := setupKGC(t)
	sk := kgc.Extract("alice@example.com")
	lhs := bn254.Pair(sk.SK, bn254.G2Generator())
	rhs := bn254.Pair(PublicKeyOf("alice@example.com"), kgc.Params().PK)
	if !lhs.Equal(rhs) {
		t.Fatal("extracted key inconsistent with public parameters")
	}
}

func TestCiphertextMarshalRoundTrip(t *testing.T) {
	kgc := setupKGC(t)
	m := randomGT(t)
	ct, err := Encrypt(kgc.Params(), "alice@example.com", m, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalCiphertext(ct.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Marshal(), ct.Marshal()) {
		t.Fatal("ciphertext round trip mismatch")
	}
	if _, err := UnmarshalCiphertext(ct.Marshal()[:40]); err == nil {
		t.Fatal("accepted truncated ciphertext")
	}
}

func TestPrivateKeyMarshalRoundTrip(t *testing.T) {
	kgc := setupKGC(t)
	sk := kgc.Extract("alice@example.com")
	got, err := UnmarshalPrivateKey(sk.Marshal(), kgc.Params())
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != sk.ID || !equalG1(got.SK, sk.SK) {
		t.Fatal("private key round trip mismatch")
	}
	if _, err := UnmarshalPrivateKey([]byte{0, 0}, kgc.Params()); err == nil {
		t.Fatal("accepted truncated key")
	}
}

func TestParamsMarshalRoundTrip(t *testing.T) {
	kgc := setupKGC(t)
	p := kgc.Params()
	got, err := UnmarshalParams(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != p.Name || !got.PK.Equal(p.PK) {
		t.Fatal("params round trip mismatch")
	}
	if _, err := UnmarshalParams([]byte{9}); err == nil {
		t.Fatal("accepted truncated params")
	}
}

func TestDecryptNilInputs(t *testing.T) {
	kgc := setupKGC(t)
	sk := kgc.Extract("alice@example.com")
	if _, err := Decrypt(nil, &Ciphertext{}); err == nil {
		t.Fatal("nil key accepted")
	}
	if _, err := Decrypt(sk, nil); err == nil {
		t.Fatal("nil ciphertext accepted")
	}
}

func TestRestoreKGCReproducesKeys(t *testing.T) {
	kgc := setupKGC(t)
	restored, err := RestoreKGC(kgc.MarshalMaster())
	if err != nil {
		t.Fatal(err)
	}
	if !restored.Params().PK.Equal(kgc.Params().PK) {
		t.Fatal("restored KGC has a different public key")
	}
	if restored.Params().Name != kgc.Params().Name {
		t.Fatal("restored KGC lost its name")
	}
	a := kgc.Extract("alice@example.com")
	b := restored.Extract("alice@example.com")
	if !equalG1(a.SK, b.SK) {
		t.Fatal("restored KGC extracts different keys")
	}
	// A key from the original decrypts a ciphertext made with restored
	// params and vice versa.
	m := randomGT(t)
	ct, err := Encrypt(restored.Params(), "alice@example.com", m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := Decrypt(a, ct); !got.Equal(m) {
		t.Fatal("cross-restore decryption failed")
	}
}

func TestRestoreKGCRejectsInvalid(t *testing.T) {
	if _, err := RestoreKGC([]byte{1, 2}); err == nil {
		t.Fatal("accepted truncated master")
	}
	kgc := setupKGC(t)
	data := kgc.MarshalMaster()
	// Zero exponent.
	zeroed := append([]byte{}, data...)
	for i := len(zeroed) - 32; i < len(zeroed); i++ {
		zeroed[i] = 0
	}
	if _, err := RestoreKGC(zeroed); err == nil {
		t.Fatal("accepted zero master exponent")
	}
	// Length mismatch.
	if _, err := RestoreKGC(append(data, 0x00)); err == nil {
		t.Fatal("accepted oversized master blob")
	}
}

func TestParamsIsolationBetweenKGCs(t *testing.T) {
	// Two KGCs with the same name are still cryptographically unrelated.
	kgc1 := setupKGC(t)
	kgc2, err := Setup("test-kgc", nil)
	if err != nil {
		t.Fatal(err)
	}
	if kgc1.Params().PK.Equal(kgc2.Params().PK) {
		t.Fatal("two Setups produced the same master key")
	}
}

// equalG1 compares two G1 points by their canonical encodings.
func equalG1(a, b *bn254.G1) bool { return bytes.Equal(a.Marshal(), b.Marshal()) }
