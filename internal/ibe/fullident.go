package ibe

import (
	"crypto/rand"
	"fmt"
	"io"

	"typepre/internal/bn254"
)

// FullIdent: the chosen-ciphertext-secure variant of Boneh–Franklin via
// the Fujisaki–Okamoto transform, exactly as in the original paper
// (§4.2 there). The paper reproduced here uses only the CPA "BasicIdent"
// form and names CCA security as future work (§6); this file provides the
// CCA-secure base layer that future-work construction would start from.
//
//	Encrypt:  σ ←R {0,1}^256, r = H3(σ‖m)
//	          c = (g₂^r, σ ⊕ H2(ê(H1(id), pk)^r), m ⊕ H4(σ))
//	Decrypt:  σ = c2 ⊕ H2(ê(sk, c1)), m = c3 ⊕ H4(σ), r = H3(σ‖m);
//	          reject unless c1 == g₂^r
//
// The re-encryption check (recomputing c1 from the recovered randomness)
// is what defeats chosen-ciphertext mauling.

const sigmaSize = 32

// Hash domains of the FO transform.
const (
	domainFOSigma = "typepre/ibe/fo/sigma-mask/v1" // H2 role
	domainFOR     = "typepre/ibe/fo/r/v1"          // H3 role
	domainFOMsg   = "typepre/ibe/fo/msg-mask/v1"   // H4 role
)

// CCACiphertext is a FullIdent ciphertext.
type CCACiphertext struct {
	C1 *bn254.G2
	C2 []byte // σ ⊕ H2(pairing value), 32 bytes
	C3 []byte // m ⊕ H4(σ)
}

// h4Mask expands σ into a len-byte mask.
func h4Mask(sigma []byte, n int) []byte {
	out := make([]byte, 0, n)
	ctr := uint32(0)
	for len(out) < n {
		h := bn254.HashToZr(fmt.Sprintf("%s/%d", domainFOMsg, ctr), sigma)
		out = append(out, h.Bytes()...)
		ctr++
	}
	return out[:n]
}

// EncryptCCA encrypts m to id with chosen-ciphertext security.
func EncryptCCA(params *Params, id string, m []byte, rng io.Reader) (*CCACiphertext, error) {
	if rng == nil {
		rng = rand.Reader
	}
	sigma := make([]byte, sigmaSize)
	if _, err := io.ReadFull(rng, sigma); err != nil {
		return nil, fmt.Errorf("ibe: encrypt cca: %w", err)
	}
	r := bn254.HashToZr(domainFOR, append(append([]byte{}, sigma...), m...))

	var c1 bn254.G2
	c1.ScalarBaseMult(r)

	shared := params.EncryptionMask(id)
	var sharedR bn254.GT
	sharedR.Exp(shared, r)
	pad := bn254.KDF(domainFOSigma, &sharedR, sigmaSize)
	c2 := make([]byte, sigmaSize)
	for i := range sigma {
		c2[i] = sigma[i] ^ pad[i]
	}

	mask := h4Mask(sigma, len(m))
	c3 := make([]byte, len(m))
	for i := range m {
		c3[i] = m[i] ^ mask[i]
	}
	return &CCACiphertext{C1: &c1, C2: c2, C3: c3}, nil
}

// DecryptCCA decrypts and VERIFIES a FullIdent ciphertext. Any mauling of
// any component yields ErrDecrypt.
func DecryptCCA(sk *PrivateKey, ct *CCACiphertext) ([]byte, error) {
	if sk == nil || sk.SK == nil || ct == nil || ct.C1 == nil || len(ct.C2) != sigmaSize {
		return nil, ErrDecrypt
	}
	sharedR := bn254.Pair(sk.SK, ct.C1)
	pad := bn254.KDF(domainFOSigma, sharedR, sigmaSize)
	sigma := make([]byte, sigmaSize)
	for i := range sigma {
		sigma[i] = ct.C2[i] ^ pad[i]
	}
	mask := h4Mask(sigma, len(ct.C3))
	m := make([]byte, len(ct.C3))
	for i := range m {
		m[i] = ct.C3[i] ^ mask[i]
	}
	// FO check: re-derive r and re-compute c1.
	r := bn254.HashToZr(domainFOR, append(append([]byte{}, sigma...), m...))
	var c1Check bn254.G2
	c1Check.ScalarBaseMult(r)
	if !c1Check.Equal(ct.C1) {
		return nil, ErrDecrypt
	}
	return m, nil
}

// Marshal encodes the CCA ciphertext as C1‖C2‖len(C3)‖C3.
func (c *CCACiphertext) Marshal() []byte {
	out := make([]byte, 0, bn254.G2Size+sigmaSize+4+len(c.C3))
	out = append(out, c.C1.Marshal()...)
	out = append(out, c.C2...)
	out = append(out, byte(len(c.C3)>>24), byte(len(c.C3)>>16), byte(len(c.C3)>>8), byte(len(c.C3)))
	return append(out, c.C3...)
}
