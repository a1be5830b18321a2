package ibe

import (
	"errors"
	"fmt"
	"math/big"

	"typepre/internal/bn254"
	"typepre/internal/wire"
)

// ErrEncoding is returned when a serialized value cannot be decoded.
var ErrEncoding = errors.New("ibe: invalid encoding")

// CiphertextSize is the marshaled size of a GT-message ciphertext in bytes.
const CiphertextSize = bn254.G2Size + bn254.GTSize

// Marshal encodes the ciphertext as C1‖C2.
func (c *Ciphertext) Marshal() []byte {
	out := make([]byte, 0, CiphertextSize)
	out = append(out, c.C1.Marshal()...)
	out = append(out, c.C2.Marshal()...)
	return out
}

// UnmarshalCiphertext decodes a ciphertext produced by Marshal, validating
// both group encodings.
func UnmarshalCiphertext(data []byte) (*Ciphertext, error) {
	if len(data) != CiphertextSize {
		return nil, fmt.Errorf("%w: ciphertext length %d", ErrEncoding, len(data))
	}
	var c1 bn254.G2
	if err := c1.Unmarshal(data[:bn254.G2Size]); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrEncoding, err)
	}
	var c2 bn254.GT
	if err := c2.Unmarshal(data[bn254.G2Size:]); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrEncoding, err)
	}
	return &Ciphertext{C1: &c1, C2: &c2}, nil
}

// Marshal encodes the private key as len(ID)‖ID‖SK. KGC parameters are not
// serialized with the key; callers reattach them on load.
func (k *PrivateKey) Marshal() []byte {
	out := wire.AppendField(make([]byte, 0, 4+len(k.ID)+bn254.G1Size), k.ID)
	return append(out, k.SK.Marshal()...)
}

// UnmarshalPrivateKey decodes a private key produced by Marshal and binds
// it to the given KGC parameters.
func UnmarshalPrivateKey(data []byte, params *Params) (*PrivateKey, error) {
	r := wire.NewReader(data)
	id, skBytes := r.Field(), r.Next(bn254.G1Size)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: private key: %w", ErrEncoding, err)
	}
	var sk bn254.G1
	if err := sk.Unmarshal(skBytes); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrEncoding, err)
	}
	return &PrivateKey{ID: string(id), SK: &sk, Params: params}, nil
}

// MarshalMaster serializes the KGC's full state (name + master exponent)
// for offline storage. The output is secret key material.
func (k *KGC) MarshalMaster() []byte {
	var alpha [32]byte
	k.master.FillBytes(alpha[:])
	out := wire.AppendField(make([]byte, 0, 4+len(k.params.Name)+len(alpha)), k.params.Name)
	return append(out, alpha[:]...)
}

// RestoreKGC rebuilds a KGC from MarshalMaster output.
func RestoreKGC(data []byte) (*KGC, error) {
	r := wire.NewReader(data)
	name, alphaBytes := r.Field(), r.Next(32)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: master: %w", ErrEncoding, err)
	}
	alpha := new(big.Int).SetBytes(alphaBytes)
	if alpha.Sign() == 0 || alpha.Cmp(bn254.Order) >= 0 {
		return nil, fmt.Errorf("%w: master exponent out of range", ErrEncoding)
	}
	var pk bn254.G2
	pk.ScalarBaseMult(alpha)
	return &KGC{params: Params{Name: string(name), PK: &pk, pre: newParamsPre()}, master: alpha}, nil
}

// Marshal encodes the public parameters as len(Name)‖Name‖PK.
func (p *Params) Marshal() []byte {
	out := wire.AppendField(make([]byte, 0, 4+len(p.Name)+bn254.G2Size), p.Name)
	return append(out, p.PK.Marshal()...)
}

// UnmarshalParams decodes parameters produced by Params.Marshal.
func UnmarshalParams(data []byte) (*Params, error) {
	r := wire.NewReader(data)
	name, pkBytes := r.Field(), r.Next(bn254.G2Size)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: params: %w", ErrEncoding, err)
	}
	var pk bn254.G2
	if err := pk.Unmarshal(pkBytes); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrEncoding, err)
	}
	return &Params{Name: string(name), PK: &pk, pre: newParamsPre()}, nil
}
