package hybrid

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"typepre/internal/core"
	"typepre/internal/wire"
)

// ErrEncoding is returned when a serialized value cannot be decoded.
var ErrEncoding = errors.New("hybrid: invalid encoding")

// Both ciphertext directions share one container: the KEM encoding, the
// nonce and the sealed payload, each a length-prefixed field.

func appendContainer(out, kem, nonce, payload []byte) []byte {
	out = slices.Grow(out, 12+len(kem)+len(nonce)+len(payload))
	out = wire.AppendField(out, kem)
	out = wire.AppendField(out, nonce)
	return wire.AppendField(out, payload)
}

func readContainer(data []byte) (kem, nonce, payload []byte, err error) {
	r := wire.NewReader(data)
	kem, nonce, payload = r.Field(), r.Field(), r.Field()
	if err := r.Done(); err != nil {
		return nil, nil, nil, fmt.Errorf("%w: %w", ErrEncoding, err)
	}
	return kem, nonce, payload, nil
}

// Marshal encodes the hybrid ciphertext.
func (c *Ciphertext) Marshal() []byte {
	return appendContainer(nil, c.KEM.Marshal(), c.Nonce, c.Payload)
}

// UnmarshalCiphertext decodes a hybrid ciphertext produced by Marshal.
func UnmarshalCiphertext(data []byte) (*Ciphertext, error) {
	kem, nonce, payload, err := readContainer(data)
	if err != nil {
		return nil, err
	}
	kemCT, err := core.UnmarshalCiphertext(kem)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrEncoding, err)
	}
	return &Ciphertext{KEM: kemCT, Nonce: cloneBytes(nonce), Payload: cloneBytes(payload)}, nil
}

// Marshal encodes the re-encrypted hybrid ciphertext.
func (c *ReCiphertext) Marshal() []byte { return c.AppendTo(nil) }

// AppendTo appends the Marshal encoding to out and returns the extended
// slice.
func (c *ReCiphertext) AppendTo(out []byte) []byte {
	return appendContainer(out, c.KEM.Marshal(), c.Nonce, c.Payload)
}

// appendReEncoded appends the encoding of ReEncryptPrepared(ct, prk),
// exactly what its AppendTo appends, from ct's re-encoding e without
// building the struct: a cache hit does no field arithmetic but c1's
// encoding and allocates nothing when dst has room.
func appendReEncoded(dst []byte, ct *Ciphertext, prk *core.PreparedReKey, e *core.ReEncoding) []byte {
	at := len(dst)
	dst = append(dst, 0, 0, 0, 0) // the KEM field's length, set below
	dst = prk.AppendReCiphertext(dst, ct.KEM, e)
	binary.BigEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	dst = wire.AppendField(dst, ct.Nonce)
	return wire.AppendField(dst, ct.Payload)
}

// UnmarshalReCiphertext decodes a re-encrypted hybrid ciphertext.
func UnmarshalReCiphertext(data []byte) (*ReCiphertext, error) {
	kem, nonce, payload, err := readContainer(data)
	if err != nil {
		return nil, err
	}
	kemCT, err := core.UnmarshalReCiphertext(kem)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrEncoding, err)
	}
	return &ReCiphertext{KEM: kemCT, Nonce: cloneBytes(nonce), Payload: cloneBytes(payload)}, nil
}

func cloneBytes(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
