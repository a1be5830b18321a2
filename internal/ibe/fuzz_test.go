package ibe

import (
	"bytes"
	"encoding/binary"
	"testing"

	"typepre/internal/bn254"
)

// keyDecoders are the three length-prefixed decoders of this package,
// each with the size of the fixed part after its name or ID field and a
// re-encoding of what it accepted.
var keyDecoders = []struct {
	name   string
	tail   int
	decode func([]byte) ([]byte, error)
}{
	{"UnmarshalParams", bn254.G2Size, func(b []byte) ([]byte, error) {
		p, err := UnmarshalParams(b)
		if err != nil {
			return nil, err
		}
		return p.Marshal(), nil
	}},
	{"UnmarshalPrivateKey", bn254.G1Size, func(b []byte) ([]byte, error) {
		k, err := UnmarshalPrivateKey(b, nil)
		if err != nil {
			return nil, err
		}
		return k.Marshal(), nil
	}},
	{"RestoreKGC", 32, func(b []byte) ([]byte, error) {
		k, err := RestoreKGC(b)
		if err != nil {
			return nil, err
		}
		return k.MarshalMaster(), nil
	}},
}

// TestKeyDecodersRejectWrappingPrefixes feeds each decoder every input
// length shorter than its fixed part, each time with the length prefix
// whose 32-bit sum 4+prefix+tail wraps to exactly that length. Each must
// return ErrEncoding; a decoder that sums the prefix in uint32 passes its
// length check and then slices far past the input.
func TestKeyDecodersRejectWrappingPrefixes(t *testing.T) {
	for _, d := range keyDecoders {
		for n := 4; n < 4+d.tail; n++ {
			data := make([]byte, n)
			binary.BigEndian.PutUint32(data, uint32(n-4-d.tail))
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s: %d-byte input with prefix %x panics: %v", d.name, n, data[:4], r)
					}
				}()
				if _, err := d.decode(data); err == nil {
					t.Fatalf("%s accepted a %d-byte input with prefix %x", d.name, n, data[:4])
				}
			}()
		}
	}
}

// FuzzKeyDecoders runs every input through the params, private-key and
// master decoders: none may panic, and whatever one accepts must
// re-encode to the same bytes.
func FuzzKeyDecoders(f *testing.F) {
	kgc, err := Setup("fuzz-kgc", nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(kgc.Params().Marshal())
	f.Add(kgc.Extract("alice@fuzz").Marshal())
	f.Add(kgc.MarshalMaster())
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x81, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, d := range keyDecoders {
			if out, err := d.decode(data); err == nil && !bytes.Equal(out, data) {
				t.Fatalf("%s accepted %x but re-encodes it as %x", d.name, data, out)
			}
		}
	})
}
