package wire

import (
	"bytes"
	"errors"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var b []byte
	b = AppendField(b, "id")
	b = AppendField(b, []byte{})
	b = AppendUint64(b, 1<<63|5)
	b = append(b, 9, 8, 7)
	b = AppendField(b, []byte("body"))
	want := []byte{0, 0, 0, 2, 'i', 'd', 0, 0, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 5, 9, 8, 7, 0, 0, 0, 4, 'b', 'o', 'd', 'y'}
	if !bytes.Equal(b, want) {
		t.Fatalf("encoding %x, want %x", b, want)
	}

	r := NewReader(b)
	id, empty, u, fixed, body := r.Field(), r.Field(), r.Uint64(), r.Next(3), r.Field()
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if string(id) != "id" || len(empty) != 0 || u != 1<<63|5 || !bytes.Equal(fixed, []byte{9, 8, 7}) ||
		string(body) != "body" {
		t.Fatalf("decoded %q %q %x %x %q", id, empty, u, fixed, body)
	}
	if cap(id) != len(id) {
		t.Fatal("a field's capacity reaches into the next field")
	}
}

// TestTruncationSticks feeds every prefix of a valid encoding: each must
// fail, and the failure must survive later reads.
func TestTruncationSticks(t *testing.T) {
	b := AppendField(AppendUint64(AppendField(nil, "abc"), 7), "defg")
	for n := range len(b) {
		r := NewReader(b[:n])
		r.Field()
		r.Uint64()
		if got := r.Field(); got != nil {
			t.Fatalf("prefix %d: read %q past a failure", n, got)
		}
		if err := r.Done(); !errors.Is(err, errTruncated) {
			t.Fatalf("prefix %d: Done = %v, want a truncation", n, err)
		}
	}
}

func TestTrailingBytes(t *testing.T) {
	r := NewReader(append(AppendField(nil, "x"), 0))
	r.Field()
	if err := r.Done(); err == nil || errors.Is(err, errTruncated) {
		t.Fatalf("Done = %v, want a trailing-bytes error", err)
	}
}

// TestHugePrefixes reads length prefixes at and past 2^31, which would be
// negative as a 32-bit int, and the largest, which wraps any uint32 sum:
// each must be an error. The 386 build runs this as the 32-bit case.
func TestHugePrefixes(t *testing.T) {
	for _, prefix := range [][]byte{
		{0x80, 0, 0, 0},
		{0xFF, 0xFF, 0xFF, 0x7C},
		{0xFF, 0xFF, 0xFF, 0xFF},
	} {
		for _, tail := range [][]byte{nil, make([]byte, 200)} {
			r := NewReader(append(append([]byte(nil), prefix...), tail...))
			if f := r.Field(); f != nil || !errors.Is(r.Done(), errTruncated) {
				t.Fatalf("prefix %x with %d bytes: field %d bytes, err %v", prefix, len(tail), len(f), r.Done())
			}
		}
	}
	r := NewReader(make([]byte, 8))
	if r.Next(-1) != nil || r.Done() == nil {
		t.Fatal("Next(-1) succeeded")
	}
}

func TestDecodeAllocatesNothing(t *testing.T) {
	b := AppendField(AppendUint64(AppendField(nil, "abc"), 7), "defg")
	if n := testing.AllocsPerRun(100, func() {
		r := NewReader(b)
		r.Field()
		r.Uint64()
		r.Field()
		if r.Done() != nil {
			t.Fatal("decode failed")
		}
	}); n != 0 {
		t.Fatalf("decode allocates %v times", n)
	}
}

func FuzzReader(f *testing.F) {
	f.Add(AppendField(AppendUint64(AppendField(nil, "abc"), 7), "defg"))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7C})
	f.Fuzz(func(t *testing.T, b []byte) {
		r := NewReader(b)
		a, u, c := r.Field(), r.Uint64(), r.Field()
		if r.Done() != nil {
			return
		}
		if got := AppendField(AppendUint64(AppendField(nil, a), u), c); !bytes.Equal(got, b) {
			t.Fatalf("decode of %x re-encodes to %x", b, got)
		}
	})
}
