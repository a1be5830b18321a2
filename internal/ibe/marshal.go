package ibe

import (
	"math/big"

	"encoding/binary"
	"errors"
	"fmt"

	"typepre/internal/bn254"
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
	idBytes := []byte(k.ID)
	out := make([]byte, 0, 4+len(idBytes)+bn254.G1Size)
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(idBytes)))
	out = append(out, lenBuf[:]...)
	out = append(out, idBytes...)
	out = append(out, k.SK.Marshal()...)
	return out
}

// UnmarshalPrivateKey decodes a private key produced by Marshal and binds
// it to the given KGC parameters.
func UnmarshalPrivateKey(data []byte, params *Params) (*PrivateKey, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("%w: private key too short", ErrEncoding)
	}
	n := binary.BigEndian.Uint32(data[:4])
	if uint32(len(data)) != 4+n+bn254.G1Size {
		return nil, fmt.Errorf("%w: private key length mismatch", ErrEncoding)
	}
	id := string(data[4 : 4+n])
	var sk bn254.G1
	if err := sk.Unmarshal(data[4+n:]); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrEncoding, err)
	}
	return &PrivateKey{ID: id, SK: &sk, Params: params}, nil
}

// MarshalMaster serializes the KGC's full state (name + master exponent)
// for offline storage. The output is secret key material.
func (k *KGC) MarshalMaster() []byte {
	nameBytes := []byte(k.params.Name)
	out := make([]byte, 0, 4+len(nameBytes)+32)
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(nameBytes)))
	out = append(out, lenBuf[:]...)
	out = append(out, nameBytes...)
	var alphaBuf [32]byte
	k.master.FillBytes(alphaBuf[:])
	return append(out, alphaBuf[:]...)
}

// RestoreKGC rebuilds a KGC from MarshalMaster output.
func RestoreKGC(data []byte) (*KGC, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("%w: master too short", ErrEncoding)
	}
	n := binary.BigEndian.Uint32(data[:4])
	if uint32(len(data)) != 4+n+32 {
		return nil, fmt.Errorf("%w: master length mismatch", ErrEncoding)
	}
	name := string(data[4 : 4+n])
	alpha := new(big.Int).SetBytes(data[4+n:])
	if alpha.Sign() == 0 || alpha.Cmp(bn254.Order) >= 0 {
		return nil, fmt.Errorf("%w: master exponent out of range", ErrEncoding)
	}
	var pk bn254.G2
	pk.ScalarBaseMult(alpha)
	return &KGC{params: Params{Name: name, PK: &pk, pre: newParamsPre()}, master: alpha}, nil
}

// Marshal encodes the public parameters as len(Name)‖Name‖PK.
func (p *Params) Marshal() []byte {
	nameBytes := []byte(p.Name)
	out := make([]byte, 0, 4+len(nameBytes)+bn254.G2Size)
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(nameBytes)))
	out = append(out, lenBuf[:]...)
	out = append(out, nameBytes...)
	out = append(out, p.PK.Marshal()...)
	return out
}

// UnmarshalParams decodes parameters produced by Params.Marshal.
func UnmarshalParams(data []byte) (*Params, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("%w: params too short", ErrEncoding)
	}
	n := binary.BigEndian.Uint32(data[:4])
	if uint32(len(data)) != 4+n+bn254.G2Size {
		return nil, fmt.Errorf("%w: params length mismatch", ErrEncoding)
	}
	name := string(data[4 : 4+n])
	var pk bn254.G2
	if err := pk.Unmarshal(data[4+n:]); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrEncoding, err)
	}
	return &Params{Name: name, PK: &pk, pre: newParamsPre()}, nil
}
