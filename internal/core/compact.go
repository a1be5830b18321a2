package core

import (
	"errors"
	"fmt"

	"typepre/internal/bn254"
	"typepre/internal/ibe"
	"typepre/internal/wire"
)

// Compact encodings: identical structure to Marshal but with compressed
// elliptic-curve points (G2: 128→65 bytes, G1: 64→33 bytes). GT elements
// do not compress. Decoding costs one field square root per point; the
// in-package benchmarks quantify the CPU/bandwidth trade-off that backs
// the E3 table's compact rows.

// MarshalCompact encodes the ciphertext with a compressed C1.
//
// phrlint:root README E3 reports its size as ct_compact_bytes
func (c *Ciphertext) MarshalCompact() []byte {
	out := make([]byte, 0, bn254.G2CompressedSize+bn254.GTSize+4+len(c.Type))
	out = append(out, c.C1.MarshalCompressed()...)
	out = append(out, c.C2.Marshal()...)
	return wire.AppendField(out, c.Type)
}

// UnmarshalCompactCiphertext decodes MarshalCompact output.
//
// phrlint:root the decoder of the encoding README E3 sizes as ct_compact_bytes
func UnmarshalCompactCiphertext(data []byte) (*Ciphertext, error) {
	r := wire.NewReader(data)
	c1b, c2b, t := r.Next(bn254.G2CompressedSize), r.Next(bn254.GTSize), r.Field()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: compact ciphertext: %w", ErrEncoding, err)
	}
	var c1 bn254.G2
	var c2 bn254.GT
	if err := errors.Join(c1.UnmarshalCompressed(c1b), c2.Unmarshal(c2b)); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrEncoding, err)
	}
	return &Ciphertext{C1: &c1, C2: &c2, Type: Type(t)}, nil
}

// MarshalCompact encodes the rekey with compressed points throughout: the
// identity block, RK, then EncX's C1 compressed and its C2.
//
// phrlint:root README E3 reports its size as rekey_compact_bytes
func (rk *ReKey) MarshalCompact() []byte {
	out := make([]byte, 0, idsSize(rk.Type, rk.DelegatorID, rk.DelegateeID)+bn254.G1CompressedSize+bn254.G2CompressedSize+bn254.GTSize)
	out = appendIDs(out, rk.Type, rk.DelegatorID, rk.DelegateeID)
	out = append(out, rk.RK.MarshalCompressed()...)
	out = append(out, rk.EncX.C1.MarshalCompressed()...)
	return append(out, rk.EncX.C2.Marshal()...)
}

// UnmarshalCompactReKey decodes MarshalCompact output.
//
// phrlint:root the decoder of the encoding README E3 sizes as rekey_compact_bytes
func UnmarshalCompactReKey(data []byte) (*ReKey, error) {
	r := wire.NewReader(data)
	t, delegator, delegatee := readIDs(&r)
	rkb, c1b, c2b := r.Next(bn254.G1CompressedSize), r.Next(bn254.G2CompressedSize), r.Next(bn254.GTSize)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: compact rekey: %w", ErrEncoding, err)
	}
	var rk bn254.G1
	var c1 bn254.G2
	var c2 bn254.GT
	if err := errors.Join(rk.UnmarshalCompressed(rkb), c1.UnmarshalCompressed(c1b), c2.Unmarshal(c2b)); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrEncoding, err)
	}
	return &ReKey{Type: t, DelegatorID: delegator, DelegateeID: delegatee, RK: &rk, EncX: &ibe.Ciphertext{C1: &c1, C2: &c2}}, nil
}
