// Package core implements the paper's primary contribution: the
// type-and-identity-based proxy re-encryption scheme of Section 4.1,
// built on the modified Boneh–Franklin IBE of package ibe.
//
// Roles and algorithms (notation as in the paper):
//
//	Encrypt1(m, t, id):   c = (g₂^r,  m · ê(pk_id, pk₁)^(r·H2(sk_id‖t)),  t)
//	Decrypt1(c, sk_id):   m = c2 / ê(sk_id, c1)^H2(sk_id‖c3)
//	Pextract(id_i→id_j, t): rk = (t,  sk_id^(−H2(sk_id‖t)) · H1(X),  Encrypt2(X, id_j))
//	Preenc(c, rk):        c' = (c1,  c2 · ê(rk, c1),  Encrypt2(X, id_j))
//	delegatee decrypt:    m = c'2 / ê(H1(X), c'1),  X = Decrypt2(c'3, sk_idj)
//
// Only the delegator can produce type-t ciphertexts under his identity,
// because the type exponent H2(sk_id‖t) involves his private key. A proxy
// key transforms exactly the ciphertexts whose type it was extracted for;
// this is the fine-grained delegation property the paper is about.
//
// The delegator and delegatee may belong to different KGCs (KGC1 and KGC2)
// that share only the group parameters, matching the paper's setting.
package core

import (
	"errors"
	"fmt"
	"io"
	"math/big"

	"typepre/internal/bn254"
	"typepre/internal/ibe"
)

// Errors returned by this package.
var (
	// ErrTypeMismatch is returned by ReEncrypt when the proxy key was
	// extracted for a different message type than the ciphertext carries.
	ErrTypeMismatch = errors.New("core: proxy key type does not match ciphertext type")
	// ErrDecrypt is returned when decryption inputs are malformed.
	ErrDecrypt = errors.New("core: decryption failed")
)

// Type is a message category chosen by the delegator (the paper's t ∈
// {0,1}*). Examples in the PHR application: "illness-history",
// "food-statistics", "emergency".
type Type string

// Delegator wraps the private key of the party who encrypts, categorizes
// and delegates messages. It caches ê(sk_id, g₂) = ê(pk_id, pk₁), which
// makes Encrypt pairing-free.
//
// phrlint:secret — wraps the identity private key.
type Delegator struct {
	key *ibe.PrivateKey
	// base is ê(pk_id, pk₁), the pairing value every ciphertext masks
	// the message with (before the type exponent).
	base *bn254.GT
}

// NewDelegator builds a Delegator from an extracted KGC1 private key.
func NewDelegator(key *ibe.PrivateKey) *Delegator {
	// ê(pk_id, pk₁) = ê(H1(id)^α, g₂) = ê(sk_id, g₂).
	base := bn254.Pair(key.SK, bn254.G2Generator())
	return &Delegator{key: key, base: base}
}

// ID returns the delegator's identity string.
func (d *Delegator) ID() string { return d.key.ID }

// Key exposes the underlying IBE private key (used by the security games
// and by callers that persist keys).
func (d *Delegator) Key() *ibe.PrivateKey { return d.key }

// typeExponent computes H2(sk_id‖t) ∈ Z*_r, the per-type exponent that
// binds a ciphertext (and a proxy key) to one message category.
func (d *Delegator) typeExponent(t Type) *big.Int {
	return TypeExponent(d.key, t)
}

// TypeExponent computes H2(sk‖t) for an explicit private key. Exposed for
// the security-game challengers, which manage keys directly.
func TypeExponent(key *ibe.PrivateKey, t Type) *big.Int {
	msg := append(key.SK.Marshal(), []byte(t)...)
	return bn254.HashToZr(bn254.DomainZr, msg)
}

// Ciphertext is a typed first-level ciphertext c = (c1, c2, c3): only the
// delegator (or a delegatee via a type-t proxy key) can open it.
type Ciphertext struct {
	C1   *bn254.G2
	C2   *bn254.GT
	Type Type // the paper's c3
}

// Encrypt encrypts a GT message under the delegator's identity with the
// given type (the paper's Encrypt1). rng may be nil for crypto/rand.
func (d *Delegator) Encrypt(m *bn254.GT, t Type, rng io.Reader) (*Ciphertext, error) {
	r, err := bn254.RandomScalar(rng)
	if err != nil {
		return nil, fmt.Errorf("core: encrypt: %w", err)
	}
	return d.encryptWithR(m, t, r), nil
}

// encryptWithR is the deterministic core of Encrypt (used by the games).
func (d *Delegator) encryptWithR(m *bn254.GT, t Type, r *big.Int) *Ciphertext {
	var c1 bn254.G2
	c1.ScalarBaseMult(r)

	exp := new(big.Int).Mul(r, d.typeExponent(t))
	var c2 bn254.GT
	c2.Exp(d.base, exp)
	c2.Mul(m, &c2)

	return &Ciphertext{C1: &c1, C2: &c2, Type: t}
}

// Decrypt opens a first-level ciphertext with the delegator's own key
// (the paper's Decrypt1).
func (d *Delegator) Decrypt(ct *Ciphertext) (*bn254.GT, error) {
	if ct == nil || ct.C1 == nil || ct.C2 == nil {
		return nil, ErrDecrypt
	}
	den := bn254.Pair(d.key.SK, ct.C1)
	var denH bn254.GT
	denH.Exp(den, d.typeExponent(ct.Type))
	var m bn254.GT
	m.Div(ct.C2, &denH)
	return &m, nil
}

// ReKey is a proxy re-encryption key rk_{id_i→id_j} for one message type
// (the paper's Pextract output). It lets a proxy transform type-t
// ciphertexts of the delegator into ciphertexts the delegatee can open; it
// reveals nothing that opens other types (Theorem 1).
type ReKey struct {
	Type        Type
	DelegatorID string
	DelegateeID string
	// RK = sk_id^(−H2(sk_id‖t)) · H1(X) ∈ G1.
	RK *bn254.G1
	// EncX = Encrypt2(X, id_j): the random GT element X encrypted to the
	// delegatee under KGC2.
	EncX *ibe.Ciphertext
}

// Delegate produces a proxy key that delegates the decryption right for
// messages of type t to delegateeID, who is registered at the KGC described
// by delegateeParams (the paper's Pextract). It is non-interactive: only
// the delegator's key is involved.
func (d *Delegator) Delegate(delegateeParams *ibe.Params, delegateeID string, t Type, rng io.Reader) (*ReKey, error) {
	x, err := bn254.RandomGT(rng)
	if err != nil {
		return nil, fmt.Errorf("core: delegate: %w", err)
	}
	encX, err := ibe.Encrypt(delegateeParams, delegateeID, x, rng)
	if err != nil {
		return nil, fmt.Errorf("core: delegate: %w", err)
	}

	// RK = sk^(−h) · H1(X) where h = H2(sk‖t).
	h := d.typeExponent(t)
	negH := new(big.Int).Neg(h)
	var rk bn254.G1
	rk.ScalarMult(d.key.SK, negH)
	rk.Add(&rk, HashGTToG1(x))

	return &ReKey{
		Type:        t,
		DelegatorID: d.key.ID,
		DelegateeID: delegateeID,
		RK:          &rk,
		EncX:        encX,
	}, nil
}

// HashGTToG1 is the H1: GT → G1 oracle applied to the delegation secret X.
func HashGTToG1(x *bn254.GT) *bn254.G1 {
	return bn254.HashToG1(bn254.DomainG1+"/gt", x.Marshal())
}

// ReCiphertext is a re-encrypted (second-level) ciphertext
// c' = (c1, c2·ê(rk, c1), Encrypt2(X, id_j)) that the delegatee opens with
// only his own KGC2 private key.
type ReCiphertext struct {
	C1          *bn254.G2
	C2          *bn254.GT
	Type        Type
	DelegatorID string
	DelegateeID string
	EncX        *ibe.Ciphertext
}

// validateReEncrypt checks the inputs shared by the plain and prepared
// transformation paths.
func validateReEncrypt(ct *Ciphertext, rk *ReKey) error {
	if ct == nil || rk == nil || ct.C1 == nil || ct.C2 == nil || rk.RK == nil {
		return ErrDecrypt
	}
	if ct.Type != rk.Type {
		return fmt.Errorf("%w: ciphertext %q, proxy key %q", ErrTypeMismatch, ct.Type, rk.Type)
	}
	return nil
}

// reCiphertext assembles the transformed ciphertext from its transformed
// component c2 = ct.C2 · ê(rk, c1), however the caller obtained it.
func reCiphertext(ct *Ciphertext, rk *ReKey, c2 *bn254.GT) *ReCiphertext {
	var c1 bn254.G2
	c1.Set(ct.C1)
	return &ReCiphertext{
		C1:          &c1,
		C2:          c2,
		Type:        ct.Type,
		DelegatorID: rk.DelegatorID,
		DelegateeID: rk.DelegateeID,
		EncX:        rk.EncX,
	}
}

// ReEncrypt is the proxy's transformation (the paper's Preenc). It fails
// with ErrTypeMismatch when the proxy key was extracted for a different
// type: the proxy cannot widen its own delegation.
func ReEncrypt(ct *Ciphertext, rk *ReKey) (*ReCiphertext, error) {
	if err := validateReEncrypt(ct, rk); err != nil {
		return nil, err
	}
	var c2 bn254.GT
	c2.Mul(ct.C2, bn254.Pair(rk.RK, ct.C1)) // = m · ê(g₂^r, H1(X))
	return reCiphertext(ct, rk, &c2), nil
}

// DecryptReEncrypted opens a re-encrypted ciphertext with the delegatee's
// KGC2 private key: X = Decrypt2(EncX), m = c2 / ê(H1(X), c1).
func DecryptReEncrypted(sk *ibe.PrivateKey, rct *ReCiphertext) (*bn254.GT, error) {
	if rct == nil || rct.C1 == nil || rct.C2 == nil || rct.EncX == nil {
		return nil, ErrDecrypt
	}
	x, err := ibe.Decrypt(sk, rct.EncX)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	den := bn254.Pair(HashGTToG1(x), rct.C1)
	var m bn254.GT
	m.Div(rct.C2, den)
	return &m, nil
}

// TypeKey is the "weak" secret sk_id^H2(sk_id‖t) that a colluding proxy and
// delegatee can jointly reconstruct for a delegated type t (§4.3,
// collusion-safety discussion). It opens every type-t ciphertext of the
// delegator — which the delegatee was entitled to read anyway — and nothing
// else. The master key sk_id remains hidden.
//
// phrlint:secret — opens every type-t ciphertext of the delegator.
type TypeKey struct {
	Type Type
	K    *bn254.G1 // sk_id^H2(sk_id‖t)
}

// RecoverTypeKey simulates the proxy–delegatee collusion of §4.3: given the
// proxy key and the delegatee's private key, reconstruct the type key
// (RK / H1(X))^(−1) = sk^h.
func RecoverTypeKey(rk *ReKey, delegateeKey *ibe.PrivateKey) (*TypeKey, error) {
	x, err := ibe.Decrypt(delegateeKey, rk.EncX)
	if err != nil {
		return nil, fmt.Errorf("core: recover type key: %w", err)
	}
	var k bn254.G1
	k.Neg(HashGTToG1(x)) // −H1(X)
	k.Add(rk.RK, &k)     // sk^(−h)
	k.Neg(&k)            // sk^h
	return &TypeKey{Type: rk.Type, K: &k}, nil
}

// DecryptWithTypeKey opens a first-level type-t ciphertext using only the
// recovered type key: m = c2 / ê(sk^h, c1). It returns garbage (a wrong
// group element) when applied to ciphertexts of a different type — exactly
// the isolation property Theorem 1 guarantees.
func DecryptWithTypeKey(tk *TypeKey, ct *Ciphertext) (*bn254.GT, error) {
	if tk == nil || tk.K == nil || ct == nil || ct.C1 == nil || ct.C2 == nil {
		return nil, ErrDecrypt
	}
	den := bn254.Pair(tk.K, ct.C1)
	var m bn254.GT
	m.Div(ct.C2, den)
	return &m, nil
}
