package ibe

import (
	"bytes"
	"fmt"
	"math/big"
	"testing"

	"typepre/internal/bn254"
)

func TestCCAEncryptDecrypt(t *testing.T) {
	kgc := setupKGC(t)
	sk := kgc.Extract("alice@example.com")
	msg := []byte("chosen-ciphertext-secure message")

	ct, err := EncryptCCA(kgc.Params(), "alice@example.com", msg, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecryptCCA(sk, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("CCA round trip failed")
	}
}

func TestCCAWrongIdentityRejected(t *testing.T) {
	kgc := setupKGC(t)
	skBob := kgc.Extract("bob@example.com")
	ct, err := EncryptCCA(kgc.Params(), "alice@example.com", []byte("secret"), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Unlike the CPA variant (which returns garbage), FullIdent REJECTS:
	// the FO check fails because σ decrypts wrong.
	if _, err := DecryptCCA(skBob, ct); err == nil {
		t.Fatal("wrong identity passed the FO check")
	}
}

func TestCCAMaulingRejected(t *testing.T) {
	kgc := setupKGC(t)
	sk := kgc.Extract("alice@example.com")
	msg := []byte("integrity matters")
	ct, err := EncryptCCA(kgc.Params(), "alice@example.com", msg, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Maul C3 (the message mask) — the classic CPA-scheme attack that
	// flips plaintext bits. FullIdent must reject.
	mauled := &CCACiphertext{C1: ct.C1, C2: ct.C2, C3: append([]byte{}, ct.C3...)}
	mauled.C3[0] ^= 0x01
	if _, err := DecryptCCA(sk, mauled); err == nil {
		t.Fatal("mauled C3 accepted")
	}
	// Maul C2 (the σ mask).
	mauled2 := &CCACiphertext{C1: ct.C1, C2: append([]byte{}, ct.C2...), C3: ct.C3}
	mauled2.C2[0] ^= 0x01
	if _, err := DecryptCCA(sk, mauled2); err == nil {
		t.Fatal("mauled C2 accepted")
	}
	// Replace C1 with a random group element.
	k, _ := bn254RandomScalarForTest(t)
	mauled3 := &CCACiphertext{C1: ct.C1, C2: ct.C2, C3: ct.C3}
	var c1 bn254G2
	c1.ScalarBaseMult(k)
	mauled3.C1 = &c1
	if _, err := DecryptCCA(sk, mauled3); err == nil {
		t.Fatal("replaced C1 accepted")
	}
}

func TestCCAContrastWithCPA(t *testing.T) {
	// The same mauling against the CPA scheme changes the plaintext
	// silently — demonstrating exactly what the FO transform buys.
	kgc := setupKGC(t)
	sk := kgc.Extract("alice@example.com")
	msg := bn254.GTBase()
	ct, err := Encrypt(kgc.Params(), "alice@example.com", msg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ct.C2.Mul(ct.C2, bn254.GTBase())
	got, err := Decrypt(sk, ct)
	if err != nil {
		t.Fatal(err)
	}
	if want := new(bn254.GT).Mul(msg, bn254.GTBase()); !got.Equal(want) {
		t.Fatal("CPA scheme did not exhibit malleability (unexpected)")
	}
}

func TestCCAEmptyMessage(t *testing.T) {
	kgc := setupKGC(t)
	sk := kgc.Extract("alice@example.com")
	ct, err := EncryptCCA(kgc.Params(), "alice@example.com", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecryptCCA(sk, ct)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatal("empty message round trip failed")
	}
}

func TestCCAMarshalRoundTrip(t *testing.T) {
	kgc := setupKGC(t)
	sk := kgc.Extract("alice@example.com")
	msg := []byte("serialize me")
	ct, err := EncryptCCA(kgc.Params(), "alice@example.com", msg, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalCCACiphertext(ct.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecryptCCA(sk, got)
	if err != nil || !bytes.Equal(dec, msg) {
		t.Fatalf("round-tripped CCA ciphertext broken: %v", err)
	}
	if _, err := UnmarshalCCACiphertext(ct.Marshal()[:50]); err == nil {
		t.Fatal("accepted truncated CCA ciphertext")
	}
	bad := ct.Marshal()
	bad = bad[:len(bad)-1]
	if _, err := UnmarshalCCACiphertext(bad); err == nil {
		t.Fatal("accepted length mismatch")
	}
}

func TestCCANilInputs(t *testing.T) {
	kgc := setupKGC(t)
	sk := kgc.Extract("alice@example.com")
	if _, err := DecryptCCA(nil, &CCACiphertext{}); err == nil {
		t.Fatal("nil key accepted")
	}
	if _, err := DecryptCCA(sk, nil); err == nil {
		t.Fatal("nil ciphertext accepted")
	}
}

// Test helpers bridging to the bn254 package without extra imports above.

func bn254RandomScalarForTest(t *testing.T) (*big.Int, error) {
	t.Helper()
	return bn254.RandomScalar(nil)
}

type bn254G2 = bn254.G2

// UnmarshalCCACiphertext decodes a CCA ciphertext: the inverse the
// round-trip test holds Marshal to.
func UnmarshalCCACiphertext(data []byte) (*CCACiphertext, error) {
	if len(data) < bn254.G2Size+sigmaSize+4 {
		return nil, fmt.Errorf("%w: cca ciphertext too short", ErrEncoding)
	}
	var c1 bn254.G2
	if err := c1.Unmarshal(data[:bn254.G2Size]); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrEncoding, err)
	}
	data = data[bn254.G2Size:]
	c2 := make([]byte, sigmaSize)
	copy(c2, data[:sigmaSize])
	data = data[sigmaSize:]
	n := int(data[0])<<24 | int(data[1])<<16 | int(data[2])<<8 | int(data[3])
	body := data[4:]
	if len(body) != n {
		return nil, fmt.Errorf("%w: cca body length mismatch", ErrEncoding)
	}
	c3 := make([]byte, n)
	copy(c3, body)
	return &CCACiphertext{C1: &c1, C2: c2, C3: c3}, nil
}
