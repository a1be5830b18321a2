// Package wire is the one length-prefix codec behind every binary
// container in the module: a variable-length field is its length as a
// 4-byte big-endian integer followed by its bytes, and a fixed-width
// integer is big-endian. Encoders append to a caller's buffer; a Reader
// decodes with a sticky error: after the first failure every read returns
// nil or zero, and Done reports that failure.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

var errTruncated = errors.New("truncated")

// AppendField appends len(field) as a 4-byte big-endian prefix, then field.
func AppendField[T ~string | ~[]byte](dst []byte, field T) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(field)))
	return append(dst, field...)
}

// BeginField appends a placeholder length prefix for a field whose length
// is known only once its bytes are appended. It returns the extended slice
// and the prefix's offset, for EndField.
func BeginField(dst []byte) ([]byte, int) { return append(dst, 0, 0, 0, 0), len(dst) }

// EndField sets the length prefix BeginField left at dst[at:] to the
// number of bytes appended after it.
func EndField(dst []byte, at int) {
	binary.BigEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
}

// AppendUint64 appends v as 8 big-endian bytes.
func AppendUint64(dst []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(dst, v)
}

// Reader decodes a byte slice front to back. The slices it returns alias
// the input, capped at their own end; it allocates only to report an
// error.
type Reader struct {
	b    []byte
	size int // len of the whole input, for error offsets
	err  error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) Reader { return Reader{b: b, size: len(b)} }

// Next consumes the next n bytes.
func (r *Reader) Next(n int) []byte { return r.take(uint64(n), "value") }

// Field consumes one length-prefixed field and returns its bytes.
func (r *Reader) Field() []byte {
	p := r.take(4, "field length")
	if p == nil {
		return nil
	}
	return r.take(uint64(binary.BigEndian.Uint32(p)), "field")
}

// Uint64 consumes 8 big-endian bytes.
func (r *Reader) Uint64() uint64 {
	if p := r.take(8, "uint64"); p != nil {
		return binary.BigEndian.Uint64(p)
	}
	return 0
}

// Done returns the first failure, or an error if input is left over.
func (r *Reader) Done() error {
	if r.err == nil && len(r.b) != 0 {
		r.err = fmt.Errorf("%d trailing bytes at offset %d", len(r.b), r.size-len(r.b))
	}
	return r.err
}

// take consumes n bytes. It compares in uint64, so no length prefix can
// wrap the check, whatever the width of int.
func (r *Reader) take(n uint64, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.err = fmt.Errorf("%w: %s of %d bytes at offset %d, %d left", errTruncated, what, n, r.size-len(r.b), len(r.b))
		return nil
	}
	p := r.b[:n:n]
	r.b = r.b[n:]
	return p
}
