package phr

import (
	"bytes"
	"testing"

	"typepre/internal/hybrid"
	"typepre/internal/ibe"
)

// Fuzz target for the length-prefixed bulk-disclosure decoder — the one
// piece of client code that parses bytes straight off an untrusted wire.
// Invariants: no panic on any input, no allocation driven past the
// protocol limit by a hostile length prefix, and every decoded frame is a
// canonically encoded container.

// validBulkStream builds a two-frame wire stream through the real
// disclosure path.
func validBulkStream(f *testing.F) []byte {
	f.Helper()
	kgc1, err := ibe.Setup("bulkfuzz-kgc1", nil)
	if err != nil {
		f.Fatal(err)
	}
	kgc2, err := ibe.Setup("bulkfuzz-kgc2", nil)
	if err != nil {
		f.Fatal(err)
	}
	svc := NewService([]Category{CategoryEmergency})
	alice := NewPatient(kgc1, "alice@bulkfuzz")
	for _, b := range [][]byte{[]byte("frame one"), []byte("frame two")} {
		if _, err := alice.AddRecord(svc.Store, CategoryEmergency, b, nil); err != nil {
			f.Fatal(err)
		}
	}
	if err := svc.Grant(alice, kgc2.Params(), "bob@bulkfuzz", CategoryEmergency); err != nil {
		f.Fatal(err)
	}
	proxy, err := svc.ProxyFor(CategoryEmergency)
	if err != nil {
		f.Fatal(err)
	}
	var stream bytes.Buffer
	err = proxy.DiscloseCategoryStream(svc.Store, alice.ID(), CategoryEmergency, "bob@bulkfuzz",
		func(frame []byte, _ bool) error {
			stream.Write(frame)
			return nil
		})
	if err != nil {
		f.Fatal(err)
	}
	return stream.Bytes()
}

func FuzzDecodeBulkStream(f *testing.F) {
	valid := validBulkStream(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])           // truncated mid-frame
	f.Add(valid[:2])                      // truncated prefix
	f.Add([]byte{})                       // empty stream
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // oversized length prefix
	f.Add([]byte{0, 0, 0, 0})             // zero-length frame
	hostile := append([]byte{0, 0, 0, 8}, bytes.Repeat([]byte{0xaa}, 8)...)
	f.Add(hostile) // well-framed garbage
	f.Fuzz(func(t *testing.T, data []byte) {
		frames := 0
		err := DecodeBulkStream(bytes.NewReader(data), func(rct *hybrid.ReCiphertext) error {
			frames++
			// Anything the decoder accepts must re-marshal canonically:
			// a hostile frame cannot alias two wire forms of one record.
			b := rct.Marshal()
			if len(b) == 0 {
				t.Fatal("accepted frame re-marshals to nothing")
			}
			re, err := hybrid.UnmarshalReCiphertext(b)
			if err != nil {
				t.Fatalf("accepted frame does not re-decode: %v", err)
			}
			if !bytes.Equal(re.Marshal(), b) {
				t.Fatal("accepted frame is not canonical")
			}
			return nil
		})
		// A clean EOF means every byte was consumed as well-formed frames;
		// otherwise the error must arrive without a panic. Either way the
		// decoder can never have yielded more frames than fit in the input
		// (each frame costs at least its 4-byte prefix).
		if frames > len(data)/4 {
			t.Fatalf("%d frames decoded from %d bytes", frames, len(data))
		}
		_ = err
	})
}
