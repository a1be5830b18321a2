package core

import (
	"fmt"

	"typepre/internal/bn254"
	"typepre/internal/ibe"
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
	out = appendString(out, string(c.Type))
	return out
}

// UnmarshalCompactCiphertext decodes MarshalCompact output.
//
// phrlint:root the decoder of the encoding README E3 sizes as ct_compact_bytes
func UnmarshalCompactCiphertext(data []byte) (*Ciphertext, error) {
	if len(data) < bn254.G2CompressedSize+bn254.GTSize+4 {
		return nil, fmt.Errorf("%w: compact ciphertext too short", ErrEncoding)
	}
	var c1 bn254.G2
	if err := c1.UnmarshalCompressed(data[:bn254.G2CompressedSize]); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrEncoding, err)
	}
	data = data[bn254.G2CompressedSize:]
	var c2 bn254.GT
	if err := c2.Unmarshal(data[:bn254.GTSize]); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrEncoding, err)
	}
	data = data[bn254.GTSize:]
	t, rest, err := readString(data)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: trailing bytes", ErrEncoding)
	}
	return &Ciphertext{C1: &c1, C2: &c2, Type: Type(t)}, nil
}

// ibeCiphertextCompact encodes an embedded IBE ciphertext compactly.
func ibeCiphertextCompact(c *ibe.Ciphertext) []byte {
	out := make([]byte, 0, bn254.G2CompressedSize+bn254.GTSize)
	out = append(out, c.C1.MarshalCompressed()...)
	return append(out, c.C2.Marshal()...)
}

func ibeCiphertextFromCompact(data []byte) (*ibe.Ciphertext, error) {
	if len(data) != bn254.G2CompressedSize+bn254.GTSize {
		return nil, fmt.Errorf("%w: compact IBE ciphertext length %d", ErrEncoding, len(data))
	}
	var c1 bn254.G2
	if err := c1.UnmarshalCompressed(data[:bn254.G2CompressedSize]); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrEncoding, err)
	}
	var c2 bn254.GT
	if err := c2.Unmarshal(data[bn254.G2CompressedSize:]); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrEncoding, err)
	}
	return &ibe.Ciphertext{C1: &c1, C2: &c2}, nil
}

// MarshalCompact encodes the rekey with compressed points throughout.
//
// phrlint:root README E3 reports its size as rekey_compact_bytes
func (rk *ReKey) MarshalCompact() []byte {
	encX := ibeCiphertextCompact(rk.EncX)
	out := make([]byte, 0, 12+len(rk.Type)+len(rk.DelegatorID)+len(rk.DelegateeID)+bn254.G1CompressedSize+len(encX))
	out = appendString(out, string(rk.Type))
	out = appendString(out, rk.DelegatorID)
	out = appendString(out, rk.DelegateeID)
	out = append(out, rk.RK.MarshalCompressed()...)
	return append(out, encX...)
}

// UnmarshalCompactReKey decodes MarshalCompact output.
//
// phrlint:root the decoder of the encoding README E3 sizes as rekey_compact_bytes
func UnmarshalCompactReKey(data []byte) (*ReKey, error) {
	t, data, err := readString(data)
	if err != nil {
		return nil, err
	}
	delegator, data, err := readString(data)
	if err != nil {
		return nil, err
	}
	delegatee, data, err := readString(data)
	if err != nil {
		return nil, err
	}
	if len(data) != bn254.G1CompressedSize+bn254.G2CompressedSize+bn254.GTSize {
		return nil, fmt.Errorf("%w: compact rekey body length %d", ErrEncoding, len(data))
	}
	var rk bn254.G1
	if err := rk.UnmarshalCompressed(data[:bn254.G1CompressedSize]); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrEncoding, err)
	}
	encX, err := ibeCiphertextFromCompact(data[bn254.G1CompressedSize:])
	if err != nil {
		return nil, err
	}
	return &ReKey{
		Type:        Type(t),
		DelegatorID: delegator,
		DelegateeID: delegatee,
		RK:          &rk,
		EncX:        encX,
	}, nil
}
