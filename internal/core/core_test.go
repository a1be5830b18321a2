package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/big"
	"testing"
	"testing/quick"

	"typepre/internal/bn254"
	"typepre/internal/ibe"
)

// fixture builds the paper's two-domain setting: the delegator Alice at
// KGC1, the delegatee Bob at KGC2.
type fixture struct {
	kgc1, kgc2 *ibe.KGC
	alice      *Delegator
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
	aliceKey := kgc1.Extract("alice@hospital.example")
	bobKey := kgc2.Extract("bob@clinic.example")
	return &fixture{
		kgc1:   kgc1,
		kgc2:   kgc2,
		alice:  NewDelegator(aliceKey),
		bobKey: bobKey,
	}
}

func randomMessage(t *testing.T) *bn254.GT {
	t.Helper()
	m, err := bn254.RandomGT(nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	f := newFixture(t)
	m := randomMessage(t)
	ct, err := f.alice.Encrypt(m, "illness-history", nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.alice.Decrypt(ct)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatal("Decrypt1(Encrypt1(m)) != m")
	}
}

func TestDecryptWrongTypeFails(t *testing.T) {
	f := newFixture(t)
	m := randomMessage(t)
	ct, err := f.alice.Encrypt(m, "illness-history", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Tamper with the type label: the per-type exponent no longer matches.
	ct.Type = "food-statistics"
	got, err := f.alice.Decrypt(ct)
	if err != nil {
		t.Fatal(err)
	}
	if got.Equal(m) {
		t.Fatal("decryption with a forged type label recovered the message")
	}
}

func TestDelegationRoundTrip(t *testing.T) {
	f := newFixture(t)
	m := randomMessage(t)

	ct, err := f.alice.Encrypt(m, "emergency", nil)
	if err != nil {
		t.Fatal(err)
	}
	rk, err := f.alice.Delegate(f.kgc2.Params(), "bob@clinic.example", "emergency", nil)
	if err != nil {
		t.Fatal(err)
	}
	rct, err := ReEncrypt(ct, rk)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecryptReEncrypted(f.bobKey, rct)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatal("delegatee failed to recover the message through the proxy")
	}
}

func TestReEncryptTypeMismatchRejected(t *testing.T) {
	f := newFixture(t)
	m := randomMessage(t)

	ct, err := f.alice.Encrypt(m, "illness-history", nil)
	if err != nil {
		t.Fatal(err)
	}
	rk, err := f.alice.Delegate(f.kgc2.Params(), "bob@clinic.example", "food-statistics", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReEncrypt(ct, rk); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("want ErrTypeMismatch, got %v", err)
	}
}

func TestForcedCrossTypeReEncryptionYieldsGarbage(t *testing.T) {
	// Even a malicious proxy that ignores the type check cannot convert a
	// type-t' ciphertext with a type-t key: the algebra doesn't cancel.
	f := newFixture(t)
	m := randomMessage(t)

	ct, err := f.alice.Encrypt(m, "illness-history", nil)
	if err != nil {
		t.Fatal(err)
	}
	rk, err := f.alice.Delegate(f.kgc2.Params(), "bob@clinic.example", "food-statistics", nil)
	if err != nil {
		t.Fatal(err)
	}
	forged := *ct
	forged.Type = "food-statistics" // proxy relabels to bypass the check
	rct, err := ReEncrypt(&forged, rk)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecryptReEncrypted(f.bobKey, rct)
	if err != nil {
		t.Fatal(err)
	}
	if got.Equal(m) {
		t.Fatal("cross-type re-encryption recovered the plaintext")
	}
}

func TestWrongDelegateeCannotDecrypt(t *testing.T) {
	f := newFixture(t)
	m := randomMessage(t)
	eveKey := f.kgc2.Extract("eve@other.example")

	ct, err := f.alice.Encrypt(m, "emergency", nil)
	if err != nil {
		t.Fatal(err)
	}
	rk, err := f.alice.Delegate(f.kgc2.Params(), "bob@clinic.example", "emergency", nil)
	if err != nil {
		t.Fatal(err)
	}
	rct, err := ReEncrypt(ct, rk)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecryptReEncrypted(eveKey, rct)
	if err != nil {
		t.Fatal(err)
	}
	if got.Equal(m) {
		t.Fatal("non-delegatee recovered the message")
	}
}

func TestProxyAloneLearnsNothingUseful(t *testing.T) {
	// The proxy holds the rekey but not the delegatee key; applying the
	// transformation does not let it open the result.
	f := newFixture(t)
	m := randomMessage(t)

	ct, err := f.alice.Encrypt(m, "emergency", nil)
	if err != nil {
		t.Fatal(err)
	}
	rk, err := f.alice.Delegate(f.kgc2.Params(), "bob@clinic.example", "emergency", nil)
	if err != nil {
		t.Fatal(err)
	}
	rct, err := ReEncrypt(ct, rk)
	if err != nil {
		t.Fatal(err)
	}
	// The re-encrypted c2 is m·ê(g^r, H1(X)); without X (inside EncX,
	// addressed to Bob) the proxy cannot strip the mask. Sanity: c2 != m.
	if rct.C2.Equal(m) {
		t.Fatal("re-encrypted ciphertext exposes the plaintext")
	}
	if bytes.Equal(rct.C2.Marshal(), ct.C2.Marshal()) {
		t.Fatal("re-encryption did not transform the ciphertext")
	}
}

func TestMultipleTypesIndependentDelegation(t *testing.T) {
	// Alice delegates t1 to Bob and t2 to Carol; each can read exactly
	// their own type. One key pair for Alice throughout.
	f := newFixture(t)
	carolKey := f.kgc2.Extract("carol@lab.example")

	m1, m2 := randomMessage(t), randomMessage(t)
	ct1, err := f.alice.Encrypt(m1, "illness-history", nil)
	if err != nil {
		t.Fatal(err)
	}
	ct2, err := f.alice.Encrypt(m2, "food-statistics", nil)
	if err != nil {
		t.Fatal(err)
	}

	rkBob, err := f.alice.Delegate(f.kgc2.Params(), "bob@clinic.example", "illness-history", nil)
	if err != nil {
		t.Fatal(err)
	}
	rkCarol, err := f.alice.Delegate(f.kgc2.Params(), "carol@lab.example", "food-statistics", nil)
	if err != nil {
		t.Fatal(err)
	}

	rct1, err := ReEncrypt(ct1, rkBob)
	if err != nil {
		t.Fatal(err)
	}
	rct2, err := ReEncrypt(ct2, rkCarol)
	if err != nil {
		t.Fatal(err)
	}

	if got, _ := DecryptReEncrypted(f.bobKey, rct1); !got.Equal(m1) {
		t.Fatal("Bob cannot read his delegated type")
	}
	if got, _ := DecryptReEncrypted(carolKey, rct2); !got.Equal(m2) {
		t.Fatal("Carol cannot read her delegated type")
	}
	// Cross readings must fail.
	if got, _ := DecryptReEncrypted(carolKey, rct1); got.Equal(m1) {
		t.Fatal("Carol read Bob's type")
	}
	if got, _ := DecryptReEncrypted(f.bobKey, rct2); got.Equal(m2) {
		t.Fatal("Bob read Carol's type")
	}
}

func TestSameKGCDelegationWorks(t *testing.T) {
	// The delegatee may be registered at the delegator's own KGC.
	f := newFixture(t)
	bobAtKGC1 := f.kgc1.Extract("bob@clinic.example")
	m := randomMessage(t)

	ct, err := f.alice.Encrypt(m, "emergency", nil)
	if err != nil {
		t.Fatal(err)
	}
	rk, err := f.alice.Delegate(f.kgc1.Params(), "bob@clinic.example", "emergency", nil)
	if err != nil {
		t.Fatal(err)
	}
	rct, err := ReEncrypt(ct, rk)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecryptReEncrypted(bobAtKGC1, rct)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatal("same-KGC delegation failed")
	}
}

func TestCollusionRecoversOnlyTypeKey(t *testing.T) {
	// §4.3: proxy + delegatee can jointly compute sk^H2(sk‖t) for the
	// delegated type. That key opens type-t ciphertexts (which the
	// delegatee could read anyway) but no other type, and it is not the
	// master private key.
	f := newFixture(t)
	m1, m2 := randomMessage(t), randomMessage(t)

	rk, err := f.alice.Delegate(f.kgc2.Params(), "bob@clinic.example", "illness-history", nil)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := RecoverTypeKey(rk, f.bobKey)
	if err != nil {
		t.Fatal(err)
	}

	// Sanity: the recovered key equals sk^h computed honestly.
	h := TypeExponent(f.alice.key, "illness-history")
	var want bn254.G1
	want.ScalarMult(f.alice.key.SK, h)
	if !equalG1(tk.K, &want) {
		t.Fatal("recovered type key is not sk^H2(sk‖t)")
	}

	// It opens type-t ciphertexts...
	ct1, err := f.alice.Encrypt(m1, "illness-history", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := DecryptWithTypeKey(tk, ct1); !got.Equal(m1) {
		t.Fatal("type key failed on its own type")
	}

	// ...but not other types...
	ct2, err := f.alice.Encrypt(m2, "food-statistics", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := DecryptWithTypeKey(tk, ct2); got.Equal(m2) {
		t.Fatal("type key opened a different type: collusion safety broken")
	}

	// ...and it is not the master key.
	if equalG1(tk.K, f.alice.key.SK) {
		t.Fatal("collusion recovered the master private key")
	}
}

func TestReKeyOfOneDelegateeUselessToAnother(t *testing.T) {
	// A rekey addressed to Bob gives Carol (another KGC2 user) nothing:
	// she cannot decrypt EncX, so RecoverTypeKey yields a wrong key.
	f := newFixture(t)
	carolKey := f.kgc2.Extract("carol@lab.example")
	rk, err := f.alice.Delegate(f.kgc2.Params(), "bob@clinic.example", "illness-history", nil)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := RecoverTypeKey(rk, carolKey)
	if err != nil {
		t.Fatal(err)
	}
	h := TypeExponent(f.alice.key, "illness-history")
	var real bn254.G1
	real.ScalarMult(f.alice.key.SK, h)
	if equalG1(tk.K, &real) {
		t.Fatal("wrong delegatee recovered the real type key")
	}
}

func TestEncryptDeterministicWithFixedRandomness(t *testing.T) {
	f := newFixture(t)
	m := randomMessage(t)
	r := big.NewInt(123456789)
	ct1 := f.alice.encryptWithR(m, "t", r)
	ct2 := f.alice.encryptWithR(m, "t", r)
	if !bytes.Equal(ct1.Marshal(), ct2.Marshal()) {
		t.Fatal("deterministic encryption mismatch")
	}
}

func TestCiphertextMarshalRoundTrip(t *testing.T) {
	f := newFixture(t)
	m := randomMessage(t)
	ct, err := f.alice.Encrypt(m, "illness-history", nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalCiphertext(ct.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Marshal(), ct.Marshal()) || got.Type != ct.Type {
		t.Fatal("ciphertext round trip mismatch")
	}
	// Decrypts identically after the round trip.
	m2, err := f.alice.Decrypt(got)
	if err != nil {
		t.Fatal(err)
	}
	if !m2.Equal(m) {
		t.Fatal("round-tripped ciphertext decrypts wrong")
	}
}

func TestReKeyMarshalRoundTrip(t *testing.T) {
	f := newFixture(t)
	rk, err := f.alice.Delegate(f.kgc2.Params(), "bob@clinic.example", "emergency", nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalReKey(rk.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Marshal(), rk.Marshal()) {
		t.Fatal("rekey round trip mismatch")
	}
	if got.Type != "emergency" || got.DelegatorID != "alice@hospital.example" || got.DelegateeID != "bob@clinic.example" {
		t.Fatal("rekey metadata lost")
	}
	// Still functions after the round trip.
	m := randomMessage(t)
	ct, _ := f.alice.Encrypt(m, "emergency", nil)
	rct, err := ReEncrypt(ct, got)
	if err != nil {
		t.Fatal(err)
	}
	if dm, _ := DecryptReEncrypted(f.bobKey, rct); !dm.Equal(m) {
		t.Fatal("round-tripped rekey does not re-encrypt correctly")
	}
}

func TestReCiphertextMarshalRoundTrip(t *testing.T) {
	f := newFixture(t)
	m := randomMessage(t)
	ct, _ := f.alice.Encrypt(m, "emergency", nil)
	rk, _ := f.alice.Delegate(f.kgc2.Params(), "bob@clinic.example", "emergency", nil)
	rct, err := ReEncrypt(ct, rk)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalReCiphertext(rct.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Marshal(), rct.Marshal()) {
		t.Fatal("reciphertext round trip mismatch")
	}
	if dm, _ := DecryptReEncrypted(f.bobKey, got); !dm.Equal(m) {
		t.Fatal("round-tripped reciphertext decrypts wrong")
	}
}

func TestUnmarshalRejectsCorrupted(t *testing.T) {
	f := newFixture(t)
	m := randomMessage(t)
	ct, _ := f.alice.Encrypt(m, "t", nil)
	data := ct.Marshal()

	if _, err := UnmarshalCiphertext(data[:10]); err == nil {
		t.Fatal("accepted truncated ciphertext")
	}
	corrupt := append([]byte(nil), data...)
	corrupt[0] ^= 0xff // break the G2 point
	if _, err := UnmarshalCiphertext(corrupt); err == nil {
		t.Fatal("accepted corrupted G2 component")
	}
	trailing := append(append([]byte(nil), data...), 0x00)
	if _, err := UnmarshalCiphertext(trailing); err == nil {
		t.Fatal("accepted trailing bytes")
	}

	rk, _ := f.alice.Delegate(f.kgc2.Params(), "bob", "t", nil)
	rkData := rk.Marshal()
	if _, err := UnmarshalReKey(rkData[:5]); err == nil {
		t.Fatal("accepted truncated rekey")
	}
}

func TestNilInputs(t *testing.T) {
	f := newFixture(t)
	if _, err := f.alice.Decrypt(nil); err == nil {
		t.Fatal("Decrypt(nil) succeeded")
	}
	if _, err := ReEncrypt(nil, nil); err == nil {
		t.Fatal("ReEncrypt(nil,nil) succeeded")
	}
	if _, err := DecryptReEncrypted(f.bobKey, nil); err == nil {
		t.Fatal("DecryptReEncrypted(nil) succeeded")
	}
	if _, err := DecryptWithTypeKey(nil, nil); err == nil {
		t.Fatal("DecryptWithTypeKey(nil) succeeded")
	}
}

func TestTypeExponentDistinct(t *testing.T) {
	f := newFixture(t)
	h1 := TypeExponent(f.alice.key, "a")
	h2 := TypeExponent(f.alice.key, "b")
	if h1.Cmp(h2) == 0 {
		t.Fatal("distinct types produced equal exponents")
	}
	// Different delegators get different exponents for the same type.
	other := NewDelegator(f.kgc1.Extract("dave@hospital.example"))
	h3 := TypeExponent(other.key, "a")
	if h1.Cmp(h3) == 0 {
		t.Fatal("distinct keys produced equal type exponents")
	}
}

func TestEncryptDecryptQuickProperty(t *testing.T) {
	// Property: for random exponents k and random type strings, the round
	// trip Encrypt1→Decrypt1 is the identity on messages gt^k.
	f := newFixture(t)
	quickFn := func(k int64, typRaw uint32) bool {
		if k < 0 {
			k = -k
		}
		m := bn254.GTExpBase(big.NewInt(k + 1))
		typ := Type(fmt.Sprintf("type-%d", typRaw%7))
		ct, err := f.alice.Encrypt(m, typ, nil)
		if err != nil {
			return false
		}
		got, err := f.alice.Decrypt(ct)
		if err != nil {
			return false
		}
		return got.Equal(m)
	}
	cfg := &quick.Config{MaxCount: 6}
	if err := quick.Check(quickFn, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMarshalQuickProperty(t *testing.T) {
	// Property: Marshal∘Unmarshal is the identity on ciphertexts for
	// arbitrary type labels (including empty and unicode).
	f := newFixture(t)
	for _, typ := range []Type{"", "t", "漢字-类型", "with spaces and \x00 bytes"} {
		m := randomMessage(t)
		ct, err := f.alice.Encrypt(m, typ, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := UnmarshalCiphertext(ct.Marshal())
		if err != nil {
			t.Fatalf("type %q: %v", typ, err)
		}
		if got.Type != typ {
			t.Fatalf("type %q mangled to %q", typ, got.Type)
		}
		if dm, _ := f.alice.Decrypt(got); !dm.Equal(m) {
			t.Fatalf("type %q: decrypt after round trip failed", typ)
		}
	}
}

func TestReEncryptionNotTransitive(t *testing.T) {
	// A re-encrypted ciphertext has a different shape (it carries EncX) and
	// cannot be fed back into ReEncrypt: the scheme is single-hop, matching
	// the paper (multi-hop would let proxies extend delegations on their
	// own). The type system enforces this; verify the algebra also fails if
	// someone manually rebuilds a first-level ciphertext from a re-encrypted
	// one and applies a second rekey.
	f := newFixture(t)
	carolKey := f.kgc2.Extract("carol@lab.example")
	m := randomMessage(t)

	ct, _ := f.alice.Encrypt(m, "t", nil)
	rkBob, _ := f.alice.Delegate(f.kgc2.Params(), "bob@clinic.example", "t", nil)
	rct, _ := ReEncrypt(ct, rkBob)

	// "Second hop": treat (C1, C2) of the re-encrypted ciphertext as if it
	// were a fresh first-level ciphertext and apply a rekey toward Carol.
	fake := &Ciphertext{C1: rct.C1, C2: rct.C2, Type: "t"}
	rkCarol, _ := f.alice.Delegate(f.kgc2.Params(), "carol@lab.example", "t", nil)
	rct2, err := ReEncrypt(fake, rkCarol)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := DecryptReEncrypted(carolKey, rct2); got.Equal(m) {
		t.Fatal("two-hop re-encryption recovered the plaintext: scheme unexpectedly transitive")
	}
}

func TestDelegatorConcurrentUse(t *testing.T) {
	// The delegator caches a pairing at construction and is read-only
	// afterwards; concurrent encrypt/decrypt/delegate must be safe.
	f := newFixture(t)
	m := randomMessage(t)
	const workers = 8
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			typ := Type(fmt.Sprintf("t%d", w%3))
			ct, err := f.alice.Encrypt(m, typ, nil)
			if err != nil {
				errs <- err
				return
			}
			got, err := f.alice.Decrypt(ct)
			if err != nil {
				errs <- err
				return
			}
			if !got.Equal(m) {
				errs <- errors.New("concurrent round trip mismatch")
				return
			}
			if _, err := f.alice.Delegate(f.kgc2.Params(), "bob@clinic.example", typ, nil); err != nil {
				errs <- err
				return
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestCiphertextIndependence(t *testing.T) {
	// Two encryptions of the same message under the same type share no
	// component (fresh randomizer each time).
	f := newFixture(t)
	m := randomMessage(t)
	ct1, _ := f.alice.Encrypt(m, "t", nil)
	ct2, _ := f.alice.Encrypt(m, "t", nil)
	if ct1.C1.Equal(ct2.C1) || ct1.C2.Equal(ct2.C2) {
		t.Fatal("ciphertexts share components across encryptions")
	}
}

func TestCompactCiphertextRoundTrip(t *testing.T) {
	f := newFixture(t)
	m := randomMessage(t)
	ct, _ := f.alice.Encrypt(m, "emergency", nil)

	compact := ct.MarshalCompact()
	full := ct.Marshal()
	if len(compact) >= len(full) {
		t.Fatalf("compact (%d) not smaller than full (%d)", len(compact), len(full))
	}
	got, err := UnmarshalCompactCiphertext(compact)
	if err != nil {
		t.Fatal(err)
	}
	if dm, _ := f.alice.Decrypt(got); !dm.Equal(m) {
		t.Fatal("compact round trip broke decryption")
	}
	if _, err := UnmarshalCompactCiphertext(compact[:10]); err == nil {
		t.Fatal("accepted truncated compact ciphertext")
	}
	corrupt := append([]byte(nil), compact...)
	corrupt[1] ^= 0xff
	if _, err := UnmarshalCompactCiphertext(corrupt); err == nil {
		t.Fatal("accepted corrupted compact point")
	}
}

func TestCompactReKeyRoundTrip(t *testing.T) {
	f := newFixture(t)
	rk, _ := f.alice.Delegate(f.kgc2.Params(), "bob@clinic.example", "emergency", nil)

	compact := rk.MarshalCompact()
	full := rk.Marshal()
	if len(compact) >= len(full) {
		t.Fatalf("compact rekey (%d) not smaller than full (%d)", len(compact), len(full))
	}
	got, err := UnmarshalCompactReKey(compact)
	if err != nil {
		t.Fatal(err)
	}
	// Functional after round trip.
	m := randomMessage(t)
	ct, _ := f.alice.Encrypt(m, "emergency", nil)
	rct, err := ReEncrypt(ct, got)
	if err != nil {
		t.Fatal(err)
	}
	if dm, _ := DecryptReEncrypted(f.bobKey, rct); !dm.Equal(m) {
		t.Fatal("compact rekey does not re-encrypt correctly")
	}
	if _, err := UnmarshalCompactReKey(compact[:8]); err == nil {
		t.Fatal("accepted truncated compact rekey")
	}
}

// equalG1 compares two G1 points by their canonical encodings.
func equalG1(a, b *bn254.G1) bool { return bytes.Equal(a.Marshal(), b.Marshal()) }
