// Package hybrid provides byte-payload encryption on top of the core
// type-and-identity PRE scheme via the standard KEM/DEM composition: a
// fresh random GT element is encrypted with the PRE scheme (the KEM), a
// SHA-256 KDF derives an AES-256-GCM key from it, and the payload is
// sealed with that key (the DEM).
//
// Re-encryption touches only the KEM part, so the proxy's work is
// independent of the payload size — the property experiment E7 measures.
package hybrid

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"errors"
	"fmt"
	"io"

	"typepre/internal/bn254"
	"typepre/internal/core"
	"typepre/internal/ibe"
)

// Errors returned by this package.
var (
	ErrDecrypt = errors.New("hybrid: decryption failed (wrong key, wrong type, or tampered payload)")
)

const (
	keySize   = 32 // AES-256
	nonceSize = 12 // GCM standard nonce
)

// demKey is the AES-256-GCM key derived from the KEM secret. It gets a
// named type so key material stays recognizable as it flows: the
// secretprint lint tracks it into any fmt/log sink.
//
// phrlint:secret — symmetric key over the record payload.
type demKey []byte

// deriveKey runs the SHA-256 KDF from the KEM's GT secret to the DEM key.
func deriveKey(k *bn254.GT) demKey {
	return demKey(bn254.KDF(bn254.DomainKDF, k, keySize))
}

// Ciphertext is a hybrid ciphertext: a PRE-encrypted KEM plus a sealed
// payload. Both parts carry the message type.
type Ciphertext struct {
	KEM     *core.Ciphertext
	Nonce   []byte
	Payload []byte // AES-GCM sealed
}

// ReCiphertext is the re-encrypted form: the KEM has been transformed by
// the proxy; the payload is untouched.
type ReCiphertext struct {
	KEM     *core.ReCiphertext
	Nonce   []byte
	Payload []byte
}

// aad builds the GCM associated data: the type label plus the KEM
// randomizer C1, which is the one KEM component preserved verbatim by
// re-encryption. Binding it detects both relabeled ciphertexts and
// mix-and-match splicing of payloads onto foreign KEMs.
func aad(t core.Type, c1 interface{ Marshal() []byte }) []byte {
	out := append([]byte(t), 0x00)
	return append(out, c1.Marshal()...)
}

// sealPayload encrypts msg under a key derived from k, authenticating the
// type label and the KEM randomizer as associated data so a relabeled or
// spliced ciphertext fails loudly. rng may be nil for crypto/rand; the
// nonce is drawn from it so a caller supplying a deterministic source (the
// workload generator's reproducible-corpus mode) gets byte-identical
// ciphertexts.
func sealPayload(k *bn254.GT, ad, msg []byte, rng io.Reader) (nonce, sealed []byte, err error) {
	key := deriveKey(k)
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, nil, fmt.Errorf("hybrid: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, nil, fmt.Errorf("hybrid: %w", err)
	}
	if rng == nil {
		rng = rand.Reader
	}
	nonce = make([]byte, nonceSize)
	if _, err := io.ReadFull(rng, nonce); err != nil {
		return nil, nil, fmt.Errorf("hybrid: %w", err)
	}
	sealed = aead.Seal(nil, nonce, msg, ad)
	return nonce, sealed, nil
}

// openPayload reverses sealPayload. A wrong KEM key or a modified payload
// returns ErrDecrypt.
func openPayload(k *bn254.GT, ad, nonce, sealed []byte) ([]byte, error) {
	key := deriveKey(k)
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("hybrid: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("hybrid: %w", err)
	}
	if len(nonce) != nonceSize {
		return nil, ErrDecrypt
	}
	msg, err := aead.Open(nil, nonce, sealed, ad)
	if err != nil {
		return nil, ErrDecrypt
	}
	return msg, nil
}

// Encrypt seals msg with a fresh KEM under the delegator's identity and
// the given type.
func Encrypt(d *core.Delegator, msg []byte, t core.Type, rng io.Reader) (*Ciphertext, error) {
	k, err := bn254.RandomGT(rng)
	if err != nil {
		return nil, fmt.Errorf("hybrid: %w", err)
	}
	kem, err := d.Encrypt(k, t, rng)
	if err != nil {
		return nil, err
	}
	nonce, sealed, err := sealPayload(k, aad(t, kem.C1), msg, rng)
	if err != nil {
		return nil, err
	}
	return &Ciphertext{KEM: kem, Nonce: nonce, Payload: sealed}, nil
}

// Decrypt opens a hybrid ciphertext with the delegator's own key.
func Decrypt(d *core.Delegator, ct *Ciphertext) ([]byte, error) {
	if ct == nil || ct.KEM == nil {
		return nil, ErrDecrypt
	}
	k, err := d.Decrypt(ct.KEM)
	if err != nil {
		return nil, err
	}
	return openPayload(k, aad(ct.KEM.Type, ct.KEM.C1), ct.Nonce, ct.Payload)
}

// reEncryptKEM transforms the KEM through the given function and copies
// the sealed payload verbatim.
func reEncryptKEM(ct *Ciphertext, transform func(*core.Ciphertext) (*core.ReCiphertext, error)) (*ReCiphertext, error) {
	if ct == nil || ct.KEM == nil {
		return nil, ErrDecrypt
	}
	kem, err := transform(ct.KEM)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, len(ct.Nonce))
	copy(nonce, ct.Nonce)
	payload := make([]byte, len(ct.Payload))
	copy(payload, ct.Payload)
	return &ReCiphertext{KEM: kem, Nonce: nonce, Payload: payload}, nil
}

// ReEncrypt transforms the KEM with the proxy key; the sealed payload is
// copied verbatim. Cost is independent of len(Payload).
func ReEncrypt(ct *Ciphertext, rk *core.ReKey) (*ReCiphertext, error) {
	return reEncryptKEM(ct, func(kem *core.Ciphertext) (*core.ReCiphertext, error) {
		return core.ReEncrypt(kem, rk)
	})
}

// ReEncryptPrepared is ReEncrypt against a prepared proxy key: repeat
// transformations of the same sealed record decode the cached c2′ (see
// core.PreparedReKey). Outputs are identical to ReEncrypt's.
func ReEncryptPrepared(ct *Ciphertext, prk *core.PreparedReKey) (*ReCiphertext, error) {
	return reEncryptKEM(ct, prk.ReEncrypt)
}

// Reseal decrypts a hybrid ciphertext with the owner's key and re-encrypts
// the payload under a new type — the owner-side primitive behind category
// key rotation (see core.VersionedType). The result carries a fresh KEM
// key and nonce; nothing of the old sealing survives, so proxy keys
// extracted for the old type cannot transform the resealed ciphertext.
func Reseal(d *core.Delegator, ct *Ciphertext, newType core.Type, rng io.Reader) (*Ciphertext, error) {
	body, err := Decrypt(d, ct)
	if err != nil {
		return nil, err
	}
	return Encrypt(d, body, newType, rng)
}

// OpenWithKEMKey unseals a hybrid ciphertext given an explicitly recovered
// KEM key: the path of an attacker who obtained the KEM key through
// collusion rather than through a legitimate decryption. The PHR
// blast-radius test opens records this way with recovered type keys.
func OpenWithKEMKey(k *bn254.GT, ct *Ciphertext) ([]byte, error) {
	if k == nil || ct == nil || ct.KEM == nil {
		return nil, ErrDecrypt
	}
	return openPayload(k, aad(ct.KEM.Type, ct.KEM.C1), ct.Nonce, ct.Payload)
}

// DecryptReEncrypted opens a re-encrypted hybrid ciphertext with the
// delegatee's KGC2 private key.
func DecryptReEncrypted(sk *ibe.PrivateKey, rct *ReCiphertext) ([]byte, error) {
	if rct == nil || rct.KEM == nil {
		return nil, ErrDecrypt
	}
	k, err := core.DecryptReEncrypted(sk, rct.KEM)
	if err != nil {
		return nil, err
	}
	return openPayload(k, aad(rct.KEM.Type, rct.KEM.C1), rct.Nonce, rct.Payload)
}
