// Package afgh implements the Ateniese–Fu–Green–Hohenberger unidirectional
// proxy re-encryption scheme (NDSS '05 / TISSEC '06) over the bn254 pairing,
// the strongest non-identity-based comparator in the paper's related work.
//
// Global values: g₁ ∈ G1, g₂ ∈ G2, Z = ê(g₁, g₂).
//
//	KeyGen:     a ∈ Z*_r, pk = (g₁^a, g₂^a)
//	Encrypt2:   second-level (delegatable): c = (g₁^(ar), m·Z^r)
//	Decrypt2:   m = c2 / ê(c1, g₂)^(1/a)
//	ReKey:      rk_{a→b} = (g₂^b)^(1/a) = g₂^(b/a)   — needs only the
//	            delegatee's PUBLIC key: non-interactive, unidirectional
//	ReEncrypt:  c' = (ê(c1, rk), c2) = (Z^(br), m·Z^r)
//	Decrypt1:   m = c2 / c1'^(1/b)   (first-level ciphertext)
//	Encrypt1:   non-delegatable: c = (Z^(ar), m·Z^r)
//
// The paper contrasts this design with its own: AFGH needs TWO encryption
// levels (second-level messages are delegatable, first-level are private),
// and a rekey converts ALL second-level ciphertexts — per-category
// disclosure requires one key pair per category (experiment E5).
//
// phrlint:root a comparison scheme of README experiments E4, E5 and E8
package afgh

import (
	"errors"
	"fmt"
	"io"
	"math/big"

	"typepre/internal/bn254"
)

// ErrDecrypt is returned on malformed inputs.
var ErrDecrypt = errors.New("afgh: decryption failed")

// KeyPair is an AFGH key pair.
type KeyPair struct {
	SK  *big.Int
	PK1 *bn254.G1 // g₁^a, used by senders for second-level encryption
	PK2 *bn254.G2 // g₂^a, used by delegators to build rekeys toward us
}

// KeyGen creates a fresh key pair. rng may be nil for crypto/rand.
func KeyGen(rng io.Reader) (*KeyPair, error) {
	a, err := bn254.RandomScalar(rng)
	if err != nil {
		return nil, fmt.Errorf("afgh: keygen: %w", err)
	}
	var pk1 bn254.G1
	pk1.ScalarBaseMult(a)
	var pk2 bn254.G2
	pk2.ScalarBaseMult(a)
	return &KeyPair{SK: a, PK1: &pk1, PK2: &pk2}, nil
}

// SecondLevelCiphertext can be re-encrypted toward a delegatee.
type SecondLevelCiphertext struct {
	C1 *bn254.G1 // g₁^(ar)
	C2 *bn254.GT // m·Z^r
}

// FirstLevelCiphertext cannot be re-encrypted further.
type FirstLevelCiphertext struct {
	C1 *bn254.GT // Z^(ar) (Encrypt1) or Z^(br) (re-encryption output)
	C2 *bn254.GT // m·Z^r
}

// EncryptSecondLevel encrypts a GT message so that the recipient can both
// decrypt it and delegate it.
func EncryptSecondLevel(pk *KeyPair, m *bn254.GT, rng io.Reader) (*SecondLevelCiphertext, error) {
	r, err := bn254.RandomScalar(rng)
	if err != nil {
		return nil, fmt.Errorf("afgh: encrypt2: %w", err)
	}
	var c1 bn254.G1
	c1.ScalarMult(pk.PK1, r)
	var c2 bn254.GT
	c2.Exp(bn254.GTBase(), r)
	c2.Mul(m, &c2)
	return &SecondLevelCiphertext{C1: &c1, C2: &c2}, nil
}

// DecryptSecondLevel opens a second-level ciphertext with the recipient's
// own secret key.
func DecryptSecondLevel(sk *big.Int, ct *SecondLevelCiphertext) (*bn254.GT, error) {
	if sk == nil || ct == nil || ct.C1 == nil || ct.C2 == nil {
		return nil, ErrDecrypt
	}
	aInv := new(big.Int).ModInverse(sk, bn254.Order)
	if aInv == nil {
		return nil, ErrDecrypt
	}
	zr := bn254.Pair(ct.C1, bn254.G2Generator())
	var den bn254.GT
	den.Exp(zr, aInv)
	var m bn254.GT
	m.Div(ct.C2, &den)
	return &m, nil
}

// EncryptFirstLevel encrypts a GT message non-delegatably. The component
// Z^(ar) = ê(pk1, g₂)^r is derived purely from the recipient's public key.
func EncryptFirstLevel(pk *KeyPair, m *bn254.GT, rng io.Reader) (*FirstLevelCiphertext, error) {
	r, err := bn254.RandomScalar(rng)
	if err != nil {
		return nil, fmt.Errorf("afgh: encrypt1: %w", err)
	}
	zar := bn254.Pair(pk.PK1, bn254.G2Generator())
	var c1 bn254.GT
	c1.Exp(zar, r)
	var c2 bn254.GT
	c2.Exp(bn254.GTBase(), r)
	c2.Mul(m, &c2)
	return &FirstLevelCiphertext{C1: &c1, C2: &c2}, nil
}

// DecryptFirstLevel opens a first-level (or re-encrypted) ciphertext.
func DecryptFirstLevel(sk *big.Int, ct *FirstLevelCiphertext) (*bn254.GT, error) {
	if sk == nil || ct == nil || ct.C1 == nil || ct.C2 == nil {
		return nil, ErrDecrypt
	}
	bInv := new(big.Int).ModInverse(sk, bn254.Order)
	if bInv == nil {
		return nil, ErrDecrypt
	}
	var den bn254.GT
	den.Exp(ct.C1, bInv)
	var m bn254.GT
	m.Div(ct.C2, &den)
	return &m, nil
}

// ReKey builds the unidirectional proxy key g₂^(b/a) from the delegator's
// secret and the delegatee's PUBLIC key — no interaction needed.
func ReKey(delegatorSK *big.Int, delegateePK2 *bn254.G2) (*bn254.G2, error) {
	aInv := new(big.Int).ModInverse(delegatorSK, bn254.Order)
	if aInv == nil {
		return nil, errors.New("afgh: non-invertible secret key")
	}
	var rk bn254.G2
	rk.ScalarMult(delegateePK2, aInv)
	return &rk, nil
}

// ReEncrypt converts a second-level ciphertext for the delegator into a
// first-level ciphertext for the delegatee. A single rekey converts every
// second-level ciphertext — no type granularity.
func ReEncrypt(rk *bn254.G2, ct *SecondLevelCiphertext) (*FirstLevelCiphertext, error) {
	if rk == nil || ct == nil || ct.C1 == nil || ct.C2 == nil {
		return nil, ErrDecrypt
	}
	c1 := bn254.Pair(ct.C1, rk) // ê(g₁^(ar), g₂^(b/a)) = Z^(br)
	var c2 bn254.GT
	c2.Set(ct.C2)
	return &FirstLevelCiphertext{C1: c1, C2: &c2}, nil
}

// CollusionRecoverWeakKey shows what the proxy and the delegatee can learn
// together: g₂^(1/a) = rk^(1/b), the "weak" secret that opens second-level
// ciphertexts (which the delegatee could already read) but NOT first-level
// ones — AFGH's master secret stays safe, matching the paper's discussion.
func CollusionRecoverWeakKey(rk *bn254.G2, delegateeSK *big.Int) (*bn254.G2, error) {
	bInv := new(big.Int).ModInverse(delegateeSK, bn254.Order)
	if bInv == nil {
		return nil, errors.New("afgh: non-invertible secret key")
	}
	var weak bn254.G2
	weak.ScalarMult(rk, bInv)
	return &weak, nil
}

// DecryptSecondLevelWithWeakKey opens a second-level ciphertext using only
// the weak key g₂^(1/a).
func DecryptSecondLevelWithWeakKey(weak *bn254.G2, ct *SecondLevelCiphertext) (*bn254.GT, error) {
	if weak == nil || ct == nil || ct.C1 == nil || ct.C2 == nil {
		return nil, ErrDecrypt
	}
	den := bn254.Pair(ct.C1, weak) // ê(g₁^(ar), g₂^(1/a)) = Z^r
	var m bn254.GT
	m.Div(ct.C2, den)
	return &m, nil
}
