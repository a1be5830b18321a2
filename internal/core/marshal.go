package core

import (
	"errors"
	"fmt"

	"typepre/internal/bn254"
	"typepre/internal/ibe"
	"typepre/internal/wire"
)

// ErrEncoding is returned when a serialized value cannot be decoded.
var ErrEncoding = errors.New("core: invalid encoding")

// appendIDs appends the identity block that a rekey and a re-encryption
// share: len(Type)‖Type‖len(DelegatorID)‖DelegatorID‖len(DelegateeID)‖DelegateeID.
func appendIDs(out []byte, t Type, delegator, delegatee string) []byte {
	out = wire.AppendField(out, t)
	out = wire.AppendField(out, delegator)
	return wire.AppendField(out, delegatee)
}

// idsSize is the number of bytes appendIDs appends.
func idsSize(t Type, delegator, delegatee string) int {
	return 12 + len(t) + len(delegator) + len(delegatee)
}

// readIDs reads the block appendIDs writes.
func readIDs(r *wire.Reader) (t Type, delegator, delegatee string) {
	return Type(r.Field()), string(r.Field()), string(r.Field())
}

// Marshal encodes the ciphertext as C1‖C2‖len(Type)‖Type.
func (c *Ciphertext) Marshal() []byte {
	out := make([]byte, 0, bn254.G2Size+bn254.GTSize+4+len(c.Type))
	out = append(out, c.C1.Marshal()...)
	out = append(out, c.C2.Marshal()...)
	return wire.AppendField(out, c.Type)
}

// UnmarshalCiphertext decodes a Ciphertext produced by Marshal.
func UnmarshalCiphertext(data []byte) (*Ciphertext, error) {
	r := wire.NewReader(data)
	c1b, c2b, t := r.Next(bn254.G2Size), r.Next(bn254.GTSize), r.Field()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: ciphertext: %w", ErrEncoding, err)
	}
	var c1 bn254.G2
	var c2 bn254.GT
	if err := errors.Join(c1.Unmarshal(c1b), c2.Unmarshal(c2b)); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrEncoding, err)
	}
	return &Ciphertext{C1: &c1, C2: &c2, Type: Type(t)}, nil
}

// Marshal encodes the proxy key as
// len(Type)‖Type‖len(DelegatorID)‖DelegatorID‖len(DelegateeID)‖DelegateeID‖RK‖EncX.
func (rk *ReKey) Marshal() []byte {
	out := make([]byte, 0, idsSize(rk.Type, rk.DelegatorID, rk.DelegateeID)+bn254.G1Size+ibe.CiphertextSize)
	out = appendIDs(out, rk.Type, rk.DelegatorID, rk.DelegateeID)
	out = append(out, rk.RK.Marshal()...)
	return append(out, rk.EncX.Marshal()...)
}

// UnmarshalReKey decodes a ReKey produced by Marshal.
func UnmarshalReKey(data []byte) (*ReKey, error) {
	r := wire.NewReader(data)
	t, delegator, delegatee := readIDs(&r)
	rkb, encXb := r.Next(bn254.G1Size), r.Next(ibe.CiphertextSize)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: rekey: %w", ErrEncoding, err)
	}
	var rk bn254.G1
	if err := rk.Unmarshal(rkb); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrEncoding, err)
	}
	encX, err := ibe.UnmarshalCiphertext(encXb)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrEncoding, err)
	}
	return &ReKey{Type: t, DelegatorID: delegator, DelegateeID: delegatee, RK: &rk, EncX: encX}, nil
}

// Marshal encodes the re-encrypted ciphertext as C1‖C2′, the identity
// block of its rekey, and EncX.
func (rc *ReCiphertext) Marshal() []byte {
	out := make([]byte, 0, bn254.G2Size+bn254.GTSize+idsSize(rc.Type, rc.DelegatorID, rc.DelegateeID)+ibe.CiphertextSize)
	out = append(out, rc.C1.Marshal()...)
	out = append(out, rc.C2.Marshal()...)
	out = appendIDs(out, rc.Type, rc.DelegatorID, rc.DelegateeID)
	return append(out, rc.EncX.Marshal()...)
}

// UnmarshalReCiphertext decodes a ReCiphertext produced by Marshal.
func UnmarshalReCiphertext(data []byte) (*ReCiphertext, error) {
	r := wire.NewReader(data)
	c1b, c2b := r.Next(bn254.G2Size), r.Next(bn254.GTSize)
	t, delegator, delegatee := readIDs(&r)
	encXb := r.Next(ibe.CiphertextSize)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: reciphertext: %w", ErrEncoding, err)
	}
	var c1 bn254.G2
	var c2 bn254.GT
	if err := errors.Join(c1.Unmarshal(c1b), c2.Unmarshal(c2b)); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrEncoding, err)
	}
	encX, err := ibe.UnmarshalCiphertext(encXb)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrEncoding, err)
	}
	return &ReCiphertext{C1: &c1, C2: &c2, Type: t, DelegatorID: delegator, DelegateeID: delegatee, EncX: encX}, nil
}
