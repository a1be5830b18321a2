package bn254

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"io"
	"math/big"

	"typepre/internal/bn254/fp"
)

// Domain-separation tags for the random oracles used by the schemes built
// on this package. Keeping them here guarantees that the oracles of
// different protocol roles never collide.
const (
	DomainG1  = "typepre/bn254/hash-to-g1/v1"
	DomainZr  = "typepre/bn254/hash-to-zr/v1"
	DomainKDF = "typepre/bn254/gt-kdf/v1"
)

// HashToG1 hashes an arbitrary message into G1 under the given domain tag
// using deterministic try-and-increment: candidate x-coordinates are derived
// from SHA-256(domain ‖ counter ‖ msg) until x³+3 is a quadratic residue.
// Because E has cofactor 1, the resulting point is already in the order-r
// group. The map is deterministic in (domain, msg) and modeled as a random
// oracle (the paper's H1).
func HashToG1(domain string, msg []byte) *G1 {
	var ctrBuf [4]byte
	for ctr := uint32(0); ; ctr++ {
		binary.BigEndian.PutUint32(ctrBuf[:], ctr)
		h := sha256.New()
		h.Write([]byte(domain))
		h.Write(ctrBuf[:])
		h.Write(msg)
		digest := h.Sum(nil)

		var x fp.Element
		x.SetBigInt(new(big.Int).SetBytes(digest))

		// y² = x³ + 3
		var y2 fp.Element
		y2.Square(&x)
		y2.Mul(&y2, &x)
		y2.Add(&y2, &curveB)

		var y fp.Element
		if !y.Sqrt(&y2) {
			continue // not a quadratic residue; try next counter
		}
		// Deterministic sign choice from the digest so the map does not
		// favor one square root.
		if digest[0]&1 == 1 {
			y.Neg(&y)
		}
		var p G1
		p.x.Set(&x)
		p.y.Set(&y)
		p.inf = false
		return &p
	}
}

// HashToZr hashes an arbitrary message into Z*_r (never zero) under the
// given domain tag — the paper's H2: {0,1}* → Z*_p.
func HashToZr(domain string, msg []byte) *big.Int {
	var ctrBuf [4]byte
	for ctr := uint32(0); ; ctr++ {
		binary.BigEndian.PutUint32(ctrBuf[:], ctr)
		h := sha256.New()
		h.Write([]byte(domain))
		h.Write(ctrBuf[:])
		h.Write(msg)
		// Two blocks to make the bias after reduction negligible.
		block1 := h.Sum(nil)
		h.Write([]byte{0xff})
		block2 := h.Sum(nil)
		wide := new(big.Int).SetBytes(append(block1, block2...))
		wide.Mod(wide, Order)
		if wide.Sign() != 0 {
			return wide
		}
	}
}

// RandomScalar returns a uniformly random element of Z*_r read from rng
// (crypto/rand.Reader when rng is nil).
func RandomScalar(rng io.Reader) (*big.Int, error) {
	if rng == nil {
		rng = rand.Reader
	}
	max := new(big.Int).Sub(Order, big.NewInt(1))
	k, err := rand.Int(rng, max)
	if err != nil {
		return nil, err
	}
	return k.Add(k, big.NewInt(1)), nil // uniform in [1, r-1]
}

// RandomGT returns a uniformly random element of GT other than 1, read
// from rng (crypto/rand.Reader when rng is nil).
func RandomGT(rng io.Reader) (*GT, error) {
	k, err := RandomScalar(rng)
	if err != nil {
		return nil, err
	}
	return GTExpBase(k), nil
}

// KDF derives size bytes of key material from a GT element via SHA-256 in
// counter mode. It instantiates the H2: G1 → {0,1}^n oracle of the original
// Boneh–Franklin scheme and the KEM key derivation of the hybrid mode.
func KDF(domain string, g *GT, size int) []byte {
	material := g.Marshal()
	out := make([]byte, 0, size)
	var ctrBuf [4]byte
	for ctr := uint32(0); len(out) < size; ctr++ {
		binary.BigEndian.PutUint32(ctrBuf[:], ctr)
		h := sha256.New()
		h.Write([]byte(domain))
		h.Write(ctrBuf[:])
		h.Write(material)
		out = append(out, h.Sum(nil)...)
	}
	return out[:size]
}
