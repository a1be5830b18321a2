// Package ibe implements the Boneh–Franklin identity-based encryption
// scheme over the bn254 bilinear group, in the "modified" form the paper
// relies on (Section 3.2): plaintexts are elements of GT and
//
//	Setup:    master key α ∈ Z*_r, public key pk = g₂^α
//	Extract:  sk_id = H1(id)^α ∈ G1
//	Encrypt:  c = (g₂^r, m · ê(H1(id), pk)^r)
//	Decrypt:  m = c2 / ê(sk_id, c1)
//
// The paper's symmetric pairing ê: G×G → G1 is instantiated with the
// asymmetric ê: G1×G2 → GT; identities hash into G1 and the encryption
// randomizer g^r lives in G2. Every algebraic identity of the scheme is
// preserved (see the README's "Experiments" section).
package ibe

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"

	"typepre/internal/bn254"
)

// ErrDecrypt reports a key or ciphertext that does not decrypt.
var ErrDecrypt = errors.New("ibe: decryption failed")

// Params holds the public parameters of one Key Generation Center: the
// shared group description (implicit: the bn254 package) plus the KGC's
// public key pk = g₂^α and a human-readable name used only for diagnostics.
type Params struct {
	Name string
	PK   *bn254.G2

	// pre holds lazily built precomputation shared by every copy of these
	// parameters (Params is copied by value in Params()/Extract, so the
	// pointer — not the state — is duplicated). A nil pre (zero value or a
	// caller-built literal) degrades gracefully to the uncached paths.
	pre *paramsPre
}

// maskCacheLimit bounds the per-identity mask cache. When the limit is hit
// the whole cache is dropped and rebuilt on demand, which keeps the steady
// state simple and the memory bounded under identity churn.
const maskCacheLimit = 4096

// paramsPre is the precomputation state attached to a set of parameters:
// the per-identity encryption masks ê(H1(id), pk) — constant per identity,
// one pairing each, and by far the hottest value in encrypt-heavy
// workloads.
type paramsPre struct {
	mu    sync.Mutex
	masks map[string]*bn254.GT // phrlint:guardedby mu
}

// newParamsPre attaches fresh (empty) precomputation state.
func newParamsPre() *paramsPre {
	return &paramsPre{masks: make(map[string]*bn254.GT)}
}

// EncryptionMask returns ê(H1(id), pk), the Boneh–Franklin encryption mask
// for an identity, cached per identity on parameters that carry
// precomputation state. The returned value is shared and must not be
// modified. Without attached state it computes a fresh (uncached) pairing.
func (p *Params) EncryptionMask(id string) *bn254.GT {
	if p.pre == nil {
		return bn254.Pair(PublicKeyOf(id), p.PK)
	}
	p.pre.mu.Lock()
	if m, ok := p.pre.masks[id]; ok {
		p.pre.mu.Unlock()
		return m
	}
	p.pre.mu.Unlock()

	// Pair outside the lock: concurrent first requests for one identity
	// may compute the mask twice, but the results are identical and
	// encrypts for other identities are not stalled behind a ~ms pairing.
	m := bn254.Pair(PublicKeyOf(id), p.PK)

	p.pre.mu.Lock()
	if len(p.pre.masks) >= maskCacheLimit {
		p.pre.masks = make(map[string]*bn254.GT)
	}
	p.pre.masks[id] = m
	p.pre.mu.Unlock()
	return m
}

// KGC is a Key Generation Center: the holder of a master secret α who can
// extract identity private keys. The paper's trust model (§4.2) treats KGCs
// as semi-trusted: honest but curious.
//
// phrlint:secret — the master scalar must never reach fmt/log output.
type KGC struct {
	params Params
	master *big.Int
}

// Setup generates a new KGC with a fresh master key. rng may be nil to use
// crypto/rand.
func Setup(name string, rng io.Reader) (*KGC, error) {
	alpha, err := bn254.RandomScalar(rng)
	if err != nil {
		return nil, fmt.Errorf("ibe: setup: %w", err)
	}
	var pk bn254.G2
	pk.ScalarBaseMult(alpha)
	return &KGC{
		params: Params{Name: name, PK: &pk, pre: newParamsPre()},
		master: alpha,
	}, nil
}

// Params returns the KGC's public parameters. The returned value aliases
// the KGC's public key, which is immutable after Setup.
func (k *KGC) Params() *Params {
	p := k.params
	return &p
}

// PublicKeyOf returns pk_id = H1(id), the identity public key. It depends
// only on the shared group parameters, not on any particular KGC.
func PublicKeyOf(id string) *bn254.G1 {
	return bn254.HashToG1(bn254.DomainG1, []byte(id))
}

// PrivateKey is an extracted identity key sk_id = H1(id)^α together with
// the parameters of the KGC that issued it.
//
// phrlint:secret — sk_id opens every ciphertext of the identity.
type PrivateKey struct {
	ID     string
	SK     *bn254.G1
	Params *Params
}

// Extract derives the private key for an identity (the paper's Extract).
func (k *KGC) Extract(id string) *PrivateKey {
	var sk bn254.G1
	sk.ScalarMult(PublicKeyOf(id), k.master)
	p := k.params
	return &PrivateKey{ID: id, SK: &sk, Params: &p}
}

// Ciphertext is a GT-message Boneh–Franklin ciphertext (c1, c2).
type Ciphertext struct {
	C1 *bn254.G2
	C2 *bn254.GT
}

// Encrypt encrypts a GT element to an identity under the given KGC
// parameters. rng may be nil to use crypto/rand.
func Encrypt(params *Params, id string, m *bn254.GT, rng io.Reader) (*Ciphertext, error) {
	r, err := bn254.RandomScalar(rng)
	if err != nil {
		return nil, fmt.Errorf("ibe: encrypt: %w", err)
	}
	return encryptWithR(params, id, m, r), nil
}

// encryptWithR is the deterministic core of Encrypt, shared with the
// security-game challengers that need to control the randomness.
func encryptWithR(params *Params, id string, m *bn254.GT, r *big.Int) *Ciphertext {
	var c1 bn254.G2
	c1.ScalarBaseMult(r)

	mask := params.EncryptionMask(id) // ê(H1(id), pk)
	var c2 bn254.GT
	c2.Exp(mask, r)
	c2.Mul(m, &c2)
	return &Ciphertext{C1: &c1, C2: &c2}
}

// Decrypt recovers the GT plaintext with the recipient's private key.
func Decrypt(sk *PrivateKey, ct *Ciphertext) (*bn254.GT, error) {
	if sk == nil || sk.SK == nil || ct == nil || ct.C1 == nil || ct.C2 == nil {
		return nil, ErrDecrypt
	}
	den := bn254.Pair(sk.SK, ct.C1)
	var m bn254.GT
	m.Div(ct.C2, den)
	return &m, nil
}
