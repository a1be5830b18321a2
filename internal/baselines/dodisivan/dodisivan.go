// Package dodisivan implements the Dodis–Ivan secret-splitting proxy
// re-encryption construction (NDSS '03) instantiated on Boneh–Franklin IBE,
// as described in the paper's related work: the delegator splits his
// private key into two shares, the proxy partially decrypts with the first
// share, and the delegatee finishes decryption with the second share.
//
//	Split:   sk_id = sk1 · sk2 in G1  (sk2 = g^δ random, sk1 = sk_id − sk2
//	         in additive notation)
//	Proxy:   partial = c2 / ê(sk1, c1) = m · ê(sk2, c1)
//	Finish:  m = partial / ê(sk2, c1)
//
// Documented drawbacks this package demonstrates (and the tests verify):
//
//   - INTERACTIVE: sk2 must be transferred to the delegatee secretly.
//   - NOT COLLUSION-SAFE: sk1·sk2 = sk_id — the proxy and the delegatee can
//     jointly recover the delegator's entire private key (Collude).
//   - ALL-OR-NOTHING: the share pair converts every ciphertext of the
//     delegator; no per-type granularity.
//
// phrlint:root a comparison scheme of README experiments E4 and E8
package dodisivan

import (
	"errors"
	"fmt"
	"io"

	"typepre/internal/bn254"
	"typepre/internal/ibe"
)

// ErrDecrypt is returned on malformed inputs.
var ErrDecrypt = errors.New("dodisivan: decryption failed")

// Shares is a split of an IBE private key: ProxyShare goes to the proxy,
// DelegateeShare must be handed to the delegatee over a secure channel.
type Shares struct {
	ID             string
	ProxyShare     *bn254.G1 // sk1
	DelegateeShare *bn254.G1 // sk2
}

// Split divides the delegator's private key into two multiplicative shares.
func Split(sk *ibe.PrivateKey, rng io.Reader) (*Shares, error) {
	delta, err := bn254.RandomScalar(rng)
	if err != nil {
		return nil, fmt.Errorf("dodisivan: split: %w", err)
	}
	var sk2 bn254.G1
	sk2.ScalarBaseMult(delta)
	var sk1 bn254.G1
	sk1.Neg(&sk2)
	sk1.Add(sk.SK, &sk1) // sk1 = sk − sk2 (additive notation)
	return &Shares{ID: sk.ID, ProxyShare: &sk1, DelegateeShare: &sk2}, nil
}

// PartialCiphertext is the proxy's output: the original randomizer plus the
// partially unmasked payload.
type PartialCiphertext struct {
	C1 *bn254.G2
	C2 *bn254.GT // m · ê(sk2, c1)
}

// ProxyTransform partially decrypts a Boneh–Franklin ciphertext with the
// proxy share. It applies to EVERY ciphertext of the delegator.
func ProxyTransform(proxyShare *bn254.G1, ct *ibe.Ciphertext) (*PartialCiphertext, error) {
	if proxyShare == nil || ct == nil || ct.C1 == nil || ct.C2 == nil {
		return nil, ErrDecrypt
	}
	den := bn254.Pair(proxyShare, ct.C1)
	var c2 bn254.GT
	c2.Div(ct.C2, den)
	var c1 bn254.G2
	c1.Set(ct.C1)
	return &PartialCiphertext{C1: &c1, C2: &c2}, nil
}

// Finish completes decryption with the delegatee share.
func Finish(delegateeShare *bn254.G1, pct *PartialCiphertext) (*bn254.GT, error) {
	if delegateeShare == nil || pct == nil || pct.C1 == nil || pct.C2 == nil {
		return nil, ErrDecrypt
	}
	den := bn254.Pair(delegateeShare, pct.C1)
	var m bn254.GT
	m.Div(pct.C2, den)
	return &m, nil
}

// Collude reconstructs the delegator's full private key from the two
// shares — the collusion attack the paper's scheme rules out.
func Collude(s *Shares) *bn254.G1 {
	var sk bn254.G1
	sk.Add(s.ProxyShare, s.DelegateeShare)
	return &sk
}
