package hybrid

import (
	"bytes"
	"errors"
	"testing"

	"typepre/internal/core"
	"typepre/internal/ibe"
)

type fixture struct {
	kgc1, kgc2 *ibe.KGC
	alice      *core.Delegator
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
		kgc1:   kgc1,
		kgc2:   kgc2,
		alice:  core.NewDelegator(kgc1.Extract("alice@hospital.example")),
		bobKey: kgc2.Extract("bob@clinic.example"),
	}
}

func TestOwnerRoundTrip(t *testing.T) {
	f := newFixture(t)
	msg := []byte("diagnosis: seasonal allergy; prescription: loratadine 10mg")
	ct, err := Encrypt(f.alice, msg, "illness-history", nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decrypt(f.alice, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("owner round trip failed")
	}
}

func TestDelegationRoundTrip(t *testing.T) {
	f := newFixture(t)
	msg := []byte("emergency contact: +31-6-0000-0000; blood type O−")
	ct, err := Encrypt(f.alice, msg, "emergency", nil)
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
	if !bytes.Equal(got, msg) {
		t.Fatal("delegation round trip failed")
	}
}

func TestTypeMismatchRejected(t *testing.T) {
	f := newFixture(t)
	ct, err := Encrypt(f.alice, []byte("msg"), "illness-history", nil)
	if err != nil {
		t.Fatal(err)
	}
	rk, err := f.alice.Delegate(f.kgc2.Params(), "bob@clinic.example", "food-statistics", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReEncrypt(ct, rk); err == nil {
		t.Fatal("cross-type re-encryption accepted")
	}
}

func TestTamperedPayloadDetected(t *testing.T) {
	f := newFixture(t)
	ct, err := Encrypt(f.alice, []byte("original"), "t", nil)
	if err != nil {
		t.Fatal(err)
	}
	ct.Payload[0] ^= 0xff
	if _, err := Decrypt(f.alice, ct); err == nil {
		t.Fatal("tampered payload accepted")
	}
}

func TestRelabeledTypeDetected(t *testing.T) {
	// Changing the type label breaks both the KEM exponent and the GCM
	// associated data; decryption must fail, not return garbage.
	f := newFixture(t)
	ct, err := Encrypt(f.alice, []byte("original"), "t1", nil)
	if err != nil {
		t.Fatal(err)
	}
	ct.KEM.Type = "t2"
	if _, err := Decrypt(f.alice, ct); err == nil {
		t.Fatal("relabeled ciphertext accepted")
	}
}

func TestWrongDelegateeRejected(t *testing.T) {
	f := newFixture(t)
	eveKey := f.kgc2.Extract("eve@other.example")
	ct, _ := Encrypt(f.alice, []byte("secret"), "emergency", nil)
	rk, _ := f.alice.Delegate(f.kgc2.Params(), "bob@clinic.example", "emergency", nil)
	rct, _ := ReEncrypt(ct, rk)
	if _, err := DecryptReEncrypted(eveKey, rct); err == nil {
		t.Fatal("wrong delegatee decrypted the payload")
	}
}

func TestEmptyAndLargePayloads(t *testing.T) {
	f := newFixture(t)
	for _, size := range []int{0, 1, 255, 4096, 1 << 16} {
		msg := bytes.Repeat([]byte{0xab}, size)
		ct, err := Encrypt(f.alice, msg, "t", nil)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		got, err := Decrypt(f.alice, ct)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("size %d: round trip mismatch", size)
		}
	}
}

func TestReEncryptCopiesPayload(t *testing.T) {
	// Mutating the original after re-encryption must not affect the copy.
	f := newFixture(t)
	ct, _ := Encrypt(f.alice, []byte("payload"), "t", nil)
	rk, _ := f.alice.Delegate(f.kgc2.Params(), "bob@clinic.example", "t", nil)
	rct, err := ReEncrypt(ct, rk)
	if err != nil {
		t.Fatal(err)
	}
	ct.Payload[0] ^= 0xff
	if _, err := DecryptReEncrypted(f.bobKey, rct); err != nil {
		t.Fatal("re-encrypted copy affected by mutation of the original")
	}
}

func TestNilInputs(t *testing.T) {
	f := newFixture(t)
	if _, err := Decrypt(f.alice, nil); err == nil {
		t.Fatal("nil ciphertext accepted")
	}
	if _, err := ReEncrypt(nil, nil); err == nil {
		t.Fatal("nil inputs accepted")
	}
	if _, err := DecryptReEncrypted(f.bobKey, nil); err == nil {
		t.Fatal("nil reciphertext accepted")
	}
}

func TestHybridMarshalRoundTrip(t *testing.T) {
	f := newFixture(t)
	msg := []byte("serialized payload")
	ct, err := Encrypt(f.alice, msg, "t", nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalCiphertext(ct.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decrypt(f.alice, got)
	if err != nil || !bytes.Equal(dec, msg) {
		t.Fatalf("round-tripped hybrid ciphertext broken: %v", err)
	}

	rk, _ := f.alice.Delegate(f.kgc2.Params(), "bob@clinic.example", "t", nil)
	rct, err := ReEncrypt(got, rk)
	if err != nil {
		t.Fatal(err)
	}
	rgot, err := UnmarshalReCiphertext(rct.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	dec2, err := DecryptReEncrypted(f.bobKey, rgot)
	if err != nil || !bytes.Equal(dec2, msg) {
		t.Fatalf("round-tripped re-ciphertext broken: %v", err)
	}
}

func TestHybridUnmarshalRejectsCorrupted(t *testing.T) {
	f := newFixture(t)
	ct, _ := Encrypt(f.alice, []byte("x"), "t", nil)
	data := ct.Marshal()
	if _, err := UnmarshalCiphertext(data[:3]); err == nil {
		t.Fatal("accepted truncated header")
	}
	if _, err := UnmarshalCiphertext(data[:len(data)-1]); err == nil {
		t.Fatal("accepted truncated body")
	}
	trailing := append(append([]byte(nil), data...), 0xAA)
	if _, err := UnmarshalCiphertext(trailing); err == nil {
		t.Fatal("accepted trailing bytes")
	}
	bad := append([]byte(nil), data...)
	bad[5] ^= 0xff // inside the KEM G2 point
	if _, err := UnmarshalCiphertext(bad); err == nil {
		t.Fatal("accepted corrupted KEM")
	}
	if _, err := UnmarshalReCiphertext(data); err == nil {
		t.Fatal("decoded a first-level container as re-encrypted")
	}
}

func TestSplicedKEMDetected(t *testing.T) {
	// Splicing the payload of one ciphertext onto the KEM of another (same
	// type, same owner) must fail: the AAD binds the KEM randomizer C1.
	f := newFixture(t)
	ct1, _ := Encrypt(f.alice, []byte("payload one"), "t", nil)
	ct2, _ := Encrypt(f.alice, []byte("payload two"), "t", nil)
	spliced := &Ciphertext{KEM: ct1.KEM, Nonce: ct2.Nonce, Payload: ct2.Payload}
	if _, err := Decrypt(f.alice, spliced); err == nil {
		t.Fatal("spliced ciphertext accepted")
	}
}

// TestResealMovesCiphertextBetweenEpochs drives the owner-side primitive
// behind category key rotation: a record resealed under the next epoch's
// wire type still opens for the owner, is out of reach of every proxy key
// extracted for the old epoch, and opens again through a fresh delegation.
func TestResealMovesCiphertextBetweenEpochs(t *testing.T) {
	f := newFixture(t)
	msg := []byte("medication: metformin 500mg twice daily")
	oldType := core.VersionedType("medication", 0)
	newType := core.VersionedType("medication", 1)
	ct, err := Encrypt(f.alice, msg, oldType, nil)
	if err != nil {
		t.Fatal(err)
	}
	oldRK, err := f.alice.Delegate(f.kgc2.Params(), f.bobKey.ID, oldType, nil)
	if err != nil {
		t.Fatal(err)
	}

	resealed, err := Reseal(f.alice, ct, newType, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resealed.KEM.Type != newType {
		t.Fatalf("resealed type = %q, want %q", resealed.KEM.Type, newType)
	}
	// The owner still opens the resealed ciphertext.
	got, err := Decrypt(f.alice, resealed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("owner cannot open resealed ciphertext")
	}
	// The pre-rotation proxy key no longer transforms it.
	if _, err := ReEncrypt(resealed, oldRK); !errors.Is(err, core.ErrTypeMismatch) {
		t.Fatalf("stale rekey on resealed ciphertext: want ErrTypeMismatch, got %v", err)
	}
	// A fresh epoch-1 delegation restores disclosure.
	newRK, err := f.alice.Delegate(f.kgc2.Params(), f.bobKey.ID, newType, nil)
	if err != nil {
		t.Fatal(err)
	}
	rct, err := ReEncrypt(resealed, newRK)
	if err != nil {
		t.Fatal(err)
	}
	opened, err := DecryptReEncrypted(f.bobKey, rct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(opened, msg) {
		t.Fatal("fresh rekey does not open resealed ciphertext")
	}
}
