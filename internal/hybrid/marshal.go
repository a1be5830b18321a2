package hybrid

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"typepre/internal/bn254"
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

// CheckContainer reports whether data is framed as a ciphertext
// container: three length-prefixed fields and nothing after them. It
// decodes nothing inside the fields.
func CheckContainer(data []byte) error {
	_, _, _, err := readContainer(data)
	return err
}

// Marshal encodes the hybrid ciphertext.
func (c *Ciphertext) Marshal() []byte { return c.AppendTo(nil) }

// AppendTo appends Marshal's encoding of c to dst. A ciphertext decoded
// from bytes appends them as they are, encoding no point.
func (c *Ciphertext) AppendTo(dst []byte) []byte {
	if c.enc != nil {
		return append(dst, *c.enc...)
	}
	dst = slices.Grow(dst, c.Size())
	dst, at := wire.BeginField(dst)
	dst = c.KEM.AppendTo(dst)
	wire.EndField(dst, at)
	dst = wire.AppendField(dst, c.Nonce)
	return wire.AppendField(dst, c.Payload)
}

// Size returns the length of c's encoding.
func (c *Ciphertext) Size() int {
	if c.enc != nil {
		return len(*c.enc)
	}
	return 16 + bn254.G2Size + bn254.GTSize + len(c.KEM.Type) + len(c.Nonce) + len(c.Payload)
}

// UnmarshalCiphertext decodes a hybrid ciphertext produced by Marshal,
// checking its KEM's points (core.UnmarshalCiphertext). The result
// aliases data: its Nonce and Payload are slices of data, and it keeps
// data as its encoding, which AppendTo writes back. data must not be
// modified afterwards.
func UnmarshalCiphertext(data []byte) (*Ciphertext, error) {
	return unmarshalCiphertext(data, true)
}

// UnmarshalTrustedCiphertext is UnmarshalCiphertext for bytes whose points
// were checked when they entered the process and which only this process
// could have written since, such as a store's own segment files: the KEM
// decodes through core.UnmarshalTrustedCiphertext, which checks structure
// and coordinate ranges and does no curve or subgroup work. The result
// aliases data as UnmarshalCiphertext's does.
func UnmarshalTrustedCiphertext(data []byte) (*Ciphertext, error) {
	return unmarshalCiphertext(data, false)
}

func unmarshalCiphertext(data []byte, checkPoints bool) (*Ciphertext, error) {
	kem, nonce, payload, err := readContainer(data)
	if err != nil {
		return nil, err
	}
	var kemCT *core.Ciphertext
	if checkPoints {
		kemCT, err = core.UnmarshalCiphertext(kem)
	} else {
		kemCT, err = core.UnmarshalTrustedCiphertext(kem)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrEncoding, err)
	}
	// One allocation holds the ciphertext and the slice its enc points to.
	v := new(struct {
		ct  Ciphertext
		enc []byte
	})
	v.enc = data[:len(data):len(data)]
	v.ct = Ciphertext{KEM: kemCT, Nonce: nonce, Payload: payload, enc: &v.enc}
	return &v.ct, nil
}

// WithoutEncoding returns c as a ciphertext that keeps no encoding. For
// one decoded from bytes that is a copy whose Nonce and Payload are its
// own, so nothing holds on to the buffer it was decoded from; any other c
// is returned as it is.
func (c *Ciphertext) WithoutEncoding() *Ciphertext {
	if c == nil || c.enc == nil {
		return c
	}
	return &Ciphertext{KEM: c.KEM, Nonce: bytes.Clone(c.Nonce), Payload: bytes.Clone(c.Payload)}
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
// building the struct: c1, the nonce and the payload are copied from the
// container ct was decoded from, or c1 is encoded when ct keeps none. A
// cache hit allocates nothing when dst has room.
func appendReEncoded(dst []byte, ct *Ciphertext, prk *core.PreparedReKey, e *core.ReEncoding) []byte {
	dst, at := wire.BeginField(dst)
	if ct.enc != nil {
		// The KEM field, c1 first, then the nonce and payload fields.
		enc := *ct.enc
		kemLen := binary.BigEndian.Uint32(enc)
		dst = prk.AppendReCiphertext(dst, enc[4:4+bn254.G2Size], e)
		wire.EndField(dst, at)
		return append(dst, enc[4+kemLen:]...)
	}
	var c1 [bn254.G2Size]byte
	ct.KEM.C1.MarshalTo(&c1)
	dst = prk.AppendReCiphertext(dst, c1[:], e)
	wire.EndField(dst, at)
	dst = wire.AppendField(dst, ct.Nonce)
	return wire.AppendField(dst, ct.Payload)
}

// UnmarshalReCiphertext decodes a re-encrypted hybrid ciphertext, checking
// its points (core.UnmarshalReCiphertext). The result's Nonce and Payload
// are slices of data, which must not be modified afterwards.
func UnmarshalReCiphertext(data []byte) (*ReCiphertext, error) {
	kem, nonce, payload, err := readContainer(data)
	if err != nil {
		return nil, err
	}
	kemCT, err := core.UnmarshalReCiphertext(kem)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrEncoding, err)
	}
	return &ReCiphertext{KEM: kemCT, Nonce: nonce, Payload: payload}, nil
}
