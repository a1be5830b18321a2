package dodisivan

import (
	"bytes"
	"testing"

	"typepre/internal/bn254"
	"typepre/internal/ibe"
)

func setup(t *testing.T) (*ibe.KGC, *ibe.PrivateKey) {
	t.Helper()
	kgc, err := ibe.Setup("kgc", nil)
	if err != nil {
		t.Fatal(err)
	}
	return kgc, kgc.Extract("alice@example.com")
}

func randomGT(t *testing.T) *bn254.GT {
	t.Helper()
	m, err := bn254.RandomGT(nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSplitDecryptionRoundTrip(t *testing.T) {
	kgc, sk := setup(t)
	shares, err := Split(sk, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := randomGT(t)
	ct, err := ibe.Encrypt(kgc.Params(), "alice@example.com", m, nil)
	if err != nil {
		t.Fatal(err)
	}
	partial, err := ProxyTransform(shares.ProxyShare, ct)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Finish(shares.DelegateeShare, partial)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatal("split decryption failed")
	}
}

func TestProxyAloneCannotDecrypt(t *testing.T) {
	kgc, sk := setup(t)
	shares, err := Split(sk, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := randomGT(t)
	ct, _ := ibe.Encrypt(kgc.Params(), "alice@example.com", m, nil)
	partial, err := ProxyTransform(shares.ProxyShare, ct)
	if err != nil {
		t.Fatal(err)
	}
	if partial.C2.Equal(m) {
		t.Fatal("proxy share alone recovered the message")
	}
}

func TestDelegateeShareAloneCannotDecrypt(t *testing.T) {
	kgc, sk := setup(t)
	shares, _ := Split(sk, nil)
	m := randomGT(t)
	ct, _ := ibe.Encrypt(kgc.Params(), "alice@example.com", m, nil)
	// Applying Finish directly to the original ciphertext (skipping the
	// proxy) must not reveal m.
	got, err := Finish(shares.DelegateeShare, &PartialCiphertext{C1: ct.C1, C2: ct.C2})
	if err != nil {
		t.Fatal(err)
	}
	if got.Equal(m) {
		t.Fatal("delegatee share alone recovered the message")
	}
}

func TestCollusionRecoversMasterKey(t *testing.T) {
	// The paper's criticism of Dodis–Ivan: proxy + delegatee = full key.
	_, sk := setup(t)
	shares, _ := Split(sk, nil)
	recovered := Collude(shares)
	if !equalG1(recovered, sk.SK) {
		t.Fatal("collusion should recover the full private key in Dodis–Ivan")
	}
}

func TestSplitIsRandomized(t *testing.T) {
	_, sk := setup(t)
	s1, _ := Split(sk, nil)
	s2, _ := Split(sk, nil)
	if equalG1(s1.ProxyShare, s2.ProxyShare) {
		t.Fatal("two splits produced identical proxy shares")
	}
	// Both splits must still recombine to the same key.
	if !equalG1(Collude(s1), Collude(s2)) {
		t.Fatal("splits recombine to different keys")
	}
}

func TestSharesConvertAllCiphertexts(t *testing.T) {
	kgc, sk := setup(t)
	shares, _ := Split(sk, nil)
	for i := 0; i < 3; i++ {
		m := randomGT(t)
		ct, _ := ibe.Encrypt(kgc.Params(), "alice@example.com", m, nil)
		partial, err := ProxyTransform(shares.ProxyShare, ct)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := Finish(shares.DelegateeShare, partial)
		if !got.Equal(m) {
			t.Fatalf("ciphertext %d not converted", i)
		}
	}
}

func TestNilInputs(t *testing.T) {
	if _, err := ProxyTransform(nil, nil); err == nil {
		t.Fatal("nil inputs accepted")
	}
	if _, err := Finish(nil, nil); err == nil {
		t.Fatal("nil inputs accepted")
	}
}

// equalG1 compares two G1 points by their canonical encodings.
func equalG1(a, b *bn254.G1) bool { return bytes.Equal(a.Marshal(), b.Marshal()) }
