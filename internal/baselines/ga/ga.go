// Package ga implements the Green–Ateniese identity-based proxy
// re-encryption scheme IBP1 (ACNS '07) in its CPA form, the construction
// the paper's scheme extends with message types. Structurally it is the
// paper's scheme with the type exponent H2(sk‖t) removed, which makes the
// comparison in experiment E4 exact: the cost delta between ga and core IS
// the cost of type-based fine granularity.
//
//	Encrypt:  c = (g₂^r, m·ê(H1(id), pk₁)^r)            (plain BF-IBE)
//	RKGen:    rk = (sk_id⁻¹·H1(X), Encrypt2(X, id_j)),  X ∈R GT
//	ReEnc:    c' = (c1, c2·ê(rk₁, c1)) = (c1, m·ê(H1(X), c1))
//	Dec':     X = Decrypt2(rk₂), m = c'2 / ê(H1(X), c'1)
//
// One rekey re-encrypts EVERY ciphertext of the delegator: per-category
// disclosure requires trusting the proxy to filter, which is exactly the
// trust assumption the paper removes.
//
// phrlint:root a comparison scheme of README experiment E4
package ga

import (
	"errors"
	"fmt"
	"io"

	"typepre/internal/bn254"
	"typepre/internal/core"
	"typepre/internal/ibe"
)

// ErrDecrypt is returned on malformed inputs.
var ErrDecrypt = errors.New("ga: decryption failed")

// ReKey is an identity-based (type-less) proxy key.
type ReKey struct {
	DelegatorID string
	DelegateeID string
	RK          *bn254.G1       // sk_id⁻¹ · H1(X)
	EncX        *ibe.Ciphertext // Encrypt2(X, id_j)
}

// Encrypt is plain Boneh–Franklin encryption (the delegatable form).
func Encrypt(params *ibe.Params, id string, m *bn254.GT, rng io.Reader) (*ibe.Ciphertext, error) {
	return ibe.Encrypt(params, id, m, rng)
}

// Decrypt opens a ciphertext with the delegator's own key.
func Decrypt(sk *ibe.PrivateKey, ct *ibe.Ciphertext) (*bn254.GT, error) {
	return ibe.Decrypt(sk, ct)
}

// RKGen builds the proxy key toward delegateeID at the KGC described by
// delegateeParams. Non-interactive and unidirectional, like the paper's
// scheme — but with no type parameter.
func RKGen(sk *ibe.PrivateKey, delegateeParams *ibe.Params, delegateeID string, rng io.Reader) (*ReKey, error) {
	x, err := bn254.RandomGT(rng)
	if err != nil {
		return nil, fmt.Errorf("ga: rkgen: %w", err)
	}
	encX, err := ibe.Encrypt(delegateeParams, delegateeID, x, rng)
	if err != nil {
		return nil, fmt.Errorf("ga: rkgen: %w", err)
	}
	var rk bn254.G1
	rk.Neg(sk.SK) // sk⁻¹ in additive notation
	rk.Add(&rk, core.HashGTToG1(x))
	return &ReKey{
		DelegatorID: sk.ID,
		DelegateeID: delegateeID,
		RK:          &rk,
		EncX:        encX,
	}, nil
}

// ReCiphertext is a re-encrypted ciphertext for the delegatee.
type ReCiphertext struct {
	C1   *bn254.G2
	C2   *bn254.GT
	EncX *ibe.Ciphertext
}

// ReEncrypt applies the proxy key. It succeeds on every ciphertext of the
// delegator — the all-or-nothing behavior experiment E6 quantifies.
func ReEncrypt(rk *ReKey, ct *ibe.Ciphertext) (*ReCiphertext, error) {
	if rk == nil || rk.RK == nil || ct == nil || ct.C1 == nil || ct.C2 == nil {
		return nil, ErrDecrypt
	}
	adj := bn254.Pair(rk.RK, ct.C1)
	var c2 bn254.GT
	c2.Mul(ct.C2, adj)
	var c1 bn254.G2
	c1.Set(ct.C1)
	return &ReCiphertext{C1: &c1, C2: &c2, EncX: rk.EncX}, nil
}

// DecryptReEncrypted opens a re-encrypted ciphertext with the delegatee's
// private key.
func DecryptReEncrypted(sk *ibe.PrivateKey, rct *ReCiphertext) (*bn254.GT, error) {
	if rct == nil || rct.C1 == nil || rct.C2 == nil || rct.EncX == nil {
		return nil, ErrDecrypt
	}
	x, err := ibe.Decrypt(sk, rct.EncX)
	if err != nil {
		return nil, fmt.Errorf("ga: %w", err)
	}
	den := bn254.Pair(core.HashGTToG1(x), rct.C1)
	var m bn254.GT
	m.Div(rct.C2, den)
	return &m, nil
}
