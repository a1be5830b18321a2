// Package bbs implements the Blaze–Bleumer–Strauss atomic proxy
// re-encryption scheme (EUROCRYPT '98), the ElGamal-based construction the
// paper cites as the origin of proxy re-encryption. It is instantiated in
// the G1 group of the bn254 curve.
//
//	KeyGen:   a ∈ Z*_r, pk = g^a
//	Encrypt:  c = (m·g^r, pk^r) = (m·g^r, g^(ar))
//	Decrypt:  m = c1 / c2^(1/a)
//	ReKey:    rk_{a→b} = b/a mod r
//	ReEnc:    (c1, c2^(rk)) = (m·g^r, g^(br))
//
// The scheme is BI-DIRECTIONAL (rk_{b→a} = rk_{a→b}⁻¹), INTERACTIVE (the
// rekey needs both secret keys), and a single rekey converts every
// ciphertext of the delegator — the all-or-nothing trust problem the paper
// solves with types. It is also not collusion-safe: the proxy and the
// delegatee can jointly compute a = b / rk.
//
// phrlint:root a comparison scheme of README experiments E4 and E8
package bbs

import (
	"errors"
	"fmt"
	"io"
	"math/big"

	"typepre/internal/bn254"
)

// ErrDecrypt is returned on malformed decryption inputs.
var ErrDecrypt = errors.New("bbs: decryption failed")

// KeyPair is an ElGamal key pair in G1.
type KeyPair struct {
	SK *big.Int  // a
	PK *bn254.G1 // g^a
}

// KeyGen creates a fresh key pair. rng may be nil for crypto/rand.
func KeyGen(rng io.Reader) (*KeyPair, error) {
	a, err := bn254.RandomScalar(rng)
	if err != nil {
		return nil, fmt.Errorf("bbs: keygen: %w", err)
	}
	var pk bn254.G1
	pk.ScalarBaseMult(a)
	return &KeyPair{SK: a, PK: &pk}, nil
}

// Ciphertext is an ElGamal ciphertext with a G1 message.
type Ciphertext struct {
	C1 *bn254.G1 // m·g^r
	C2 *bn254.G1 // g^(ar)
}

// Encrypt encrypts a G1 message under pk.
func Encrypt(pk *bn254.G1, m *bn254.G1, rng io.Reader) (*Ciphertext, error) {
	r, err := bn254.RandomScalar(rng)
	if err != nil {
		return nil, fmt.Errorf("bbs: encrypt: %w", err)
	}
	var c1, c2 bn254.G1
	c1.ScalarBaseMult(r)
	c1.Add(&c1, m)
	c2.ScalarMult(pk, r)
	return &Ciphertext{C1: &c1, C2: &c2}, nil
}

// Decrypt recovers the message with the secret key.
func Decrypt(sk *big.Int, ct *Ciphertext) (*bn254.G1, error) {
	if sk == nil || ct == nil || ct.C1 == nil || ct.C2 == nil {
		return nil, ErrDecrypt
	}
	aInv := new(big.Int).ModInverse(sk, bn254.Order)
	if aInv == nil {
		return nil, ErrDecrypt
	}
	var gr, m bn254.G1
	gr.ScalarMult(ct.C2, aInv) // g^r
	gr.Neg(&gr)
	m.Add(ct.C1, &gr)
	return &m, nil
}

// ReKey computes the bidirectional proxy key b/a. It requires BOTH secret
// keys — the interactivity drawback the paper's scheme avoids.
func ReKey(delegator, delegatee *KeyPair) (*big.Int, error) {
	if delegator == nil || delegatee == nil {
		return nil, errors.New("bbs: nil key pair")
	}
	aInv := new(big.Int).ModInverse(delegator.SK, bn254.Order)
	if aInv == nil {
		return nil, errors.New("bbs: non-invertible secret key")
	}
	rk := new(big.Int).Mul(delegatee.SK, aInv)
	return rk.Mod(rk, bn254.Order), nil
}

// ReEncrypt transforms a delegator ciphertext into a delegatee ciphertext.
// Note the proxy can apply this to EVERY ciphertext of the delegator.
func ReEncrypt(rk *big.Int, ct *Ciphertext) (*Ciphertext, error) {
	if rk == nil || ct == nil || ct.C1 == nil || ct.C2 == nil {
		return nil, ErrDecrypt
	}
	var c1, c2 bn254.G1
	c1.Set(ct.C1)
	c2.ScalarMult(ct.C2, rk)
	return &Ciphertext{C1: &c1, C2: &c2}, nil
}

// InvertReKey returns rk_{b→a} from rk_{a→b}, demonstrating the
// bidirectional property.
func InvertReKey(rk *big.Int) (*big.Int, error) {
	inv := new(big.Int).ModInverse(rk, bn254.Order)
	if inv == nil {
		return nil, errors.New("bbs: non-invertible rekey")
	}
	return inv, nil
}

// CollusionAttack shows the scheme is not collusion-safe: the proxy (rk)
// and the delegatee (b) jointly recover the delegator's secret a = b/rk.
func CollusionAttack(rk *big.Int, delegateeSK *big.Int) (*big.Int, error) {
	rkInv, err := InvertReKey(rk)
	if err != nil {
		return nil, err
	}
	a := new(big.Int).Mul(delegateeSK, rkInv)
	return a.Mod(a, bn254.Order), nil
}
