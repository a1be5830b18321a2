package hybrid

import (
	"encoding/binary"
	"errors"
	"fmt"

	"typepre/internal/core"
)

// ErrEncoding is returned when a serialized value cannot be decoded.
var ErrEncoding = errors.New("hybrid: invalid encoding")

// Framing: KEM ‖ nonce ‖ payload, each with a 4-byte big-endian length
// prefix. The same container layout serves both ciphertext directions.

func appendChunk(out, chunk []byte) []byte {
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(chunk)))
	out = append(out, lenBuf[:]...)
	return append(out, chunk...)
}

func readChunk(data []byte) ([]byte, []byte, error) {
	if len(data) < 4 {
		return nil, nil, fmt.Errorf("%w: truncated chunk header", ErrEncoding)
	}
	n := binary.BigEndian.Uint32(data[:4])
	if uint32(len(data)-4) < n {
		return nil, nil, fmt.Errorf("%w: truncated chunk body", ErrEncoding)
	}
	return data[4 : 4+n], data[4+n:], nil
}

// Marshal encodes the hybrid ciphertext.
func (c *Ciphertext) Marshal() []byte {
	kem := c.KEM.Marshal()
	out := make([]byte, 0, 12+len(kem)+len(c.Nonce)+len(c.Payload))
	out = appendChunk(out, kem)
	out = appendChunk(out, c.Nonce)
	out = appendChunk(out, c.Payload)
	return out
}

// UnmarshalCiphertext decodes a hybrid ciphertext produced by Marshal.
func UnmarshalCiphertext(data []byte) (*Ciphertext, error) {
	kem, data, err := readChunk(data)
	if err != nil {
		return nil, err
	}
	nonce, data, err := readChunk(data)
	if err != nil {
		return nil, err
	}
	payload, rest, err := readChunk(data)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: trailing bytes", ErrEncoding)
	}
	kemCT, err := core.UnmarshalCiphertext(kem)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrEncoding, err)
	}
	return &Ciphertext{KEM: kemCT, Nonce: cloneBytes(nonce), Payload: cloneBytes(payload)}, nil
}

// Marshal encodes the re-encrypted hybrid ciphertext.
func (c *ReCiphertext) Marshal() []byte {
	kem := c.KEM.Marshal()
	out := make([]byte, 0, 12+len(kem)+len(c.Nonce)+len(c.Payload))
	out = appendChunk(out, kem)
	out = appendChunk(out, c.Nonce)
	out = appendChunk(out, c.Payload)
	return out
}

// AppendTo appends the Marshal encoding to out and returns the extended
// slice, letting hot serving paths (the HTTP frame writer's buffer pool)
// reuse one backing array across containers instead of allocating per
// response.
func (c *ReCiphertext) AppendTo(out []byte) []byte {
	out = appendChunk(out, c.KEM.Marshal())
	out = appendChunk(out, c.Nonce)
	return appendChunk(out, c.Payload)
}

// appendReEncoded appends the encoding of ReEncryptPrepared(ct, prk),
// exactly what its AppendTo appends, from ct's re-encoding e without
// building the struct: a cache hit does no field arithmetic but c1's
// encoding and allocates nothing when dst has room.
func appendReEncoded(dst []byte, ct *Ciphertext, prk *core.PreparedReKey, e *core.ReEncoding) []byte {
	at := len(dst)
	dst = append(dst, 0, 0, 0, 0) // the KEM chunk's length, set below
	dst = prk.AppendReCiphertext(dst, ct.KEM, e)
	binary.BigEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	dst = appendChunk(dst, ct.Nonce)
	return appendChunk(dst, ct.Payload)
}

// UnmarshalReCiphertext decodes a re-encrypted hybrid ciphertext.
func UnmarshalReCiphertext(data []byte) (*ReCiphertext, error) {
	kem, data, err := readChunk(data)
	if err != nil {
		return nil, err
	}
	nonce, data, err := readChunk(data)
	if err != nil {
		return nil, err
	}
	payload, rest, err := readChunk(data)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: trailing bytes", ErrEncoding)
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
