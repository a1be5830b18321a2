package hybrid

import (
	"bytes"
	"testing"

	"typepre/internal/bn254"
	"typepre/internal/core"
	"typepre/internal/ibe"
)

// Fuzz targets for the hybrid container decoders — the format every sealed
// record and every bulk-disclosure frame crosses the wire in. The invariant
// under fuzzing: decoding never panics, and any accepted input re-marshals
// to itself (canonicality), so a hostile frame cannot smuggle two distinct
// wire forms of one ciphertext past the store or the HTTP layer.

func fuzzSeeds(f *testing.F) (ct, rct []byte) {
	f.Helper()
	kgc1, err := ibe.Setup("hybrid-fuzz-kgc1", nil)
	if err != nil {
		f.Fatal(err)
	}
	kgc2, err := ibe.Setup("hybrid-fuzz-kgc2", nil)
	if err != nil {
		f.Fatal(err)
	}
	alice := core.NewDelegator(kgc1.Extract("alice@hybrid-fuzz"))
	sealed, err := Encrypt(alice, []byte("fuzz corpus record body"), "fuzz-type", nil)
	if err != nil {
		f.Fatal(err)
	}
	rk, err := alice.Delegate(kgc2.Params(), "bob@hybrid-fuzz", "fuzz-type", nil)
	if err != nil {
		f.Fatal(err)
	}
	re, err := ReEncrypt(sealed, rk)
	if err != nil {
		f.Fatal(err)
	}
	return sealed.Marshal(), re.Marshal()
}

func FuzzCiphertextRoundTrip(f *testing.F) {
	ct, _ := fuzzSeeds(f)
	f.Add(ct)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{0xff}, 900))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := UnmarshalCiphertext(data)
		if err != nil {
			return
		}
		// c writes back the bytes it keeps; its decoded fields must
		// encode to them too.
		if !bytes.Equal(c.WithoutEncoding().Marshal(), data) {
			t.Fatal("accepted non-canonical hybrid ciphertext encoding")
		}
		trusted, err := UnmarshalTrustedCiphertext(data)
		if err != nil || !bytes.Equal(trusted.WithoutEncoding().Marshal(), data) {
			t.Fatalf("the trusted decoder rejects or changes a checked encoding: %v", err)
		}
	})
}

func FuzzReCiphertextRoundTrip(f *testing.F) {
	ct, rct := fuzzSeeds(f)
	f.Add(rct)
	f.Add(ct) // a first-level container is not a valid re-encrypted one
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add(bytes.Repeat([]byte{1}, 1500))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := UnmarshalReCiphertext(data)
		if err != nil {
			return
		}
		if !bytes.Equal(c.Marshal(), data) {
			t.Fatal("accepted non-canonical hybrid reciphertext encoding")
		}
	})
}

// FuzzFrameVsReEncrypt pins the served frame to the struct path: on a
// cache miss and on the hit that follows, ReEncryptStream yields the
// length prefix and exactly the bytes of ReEncryptPrepared(ct,
// prk).AppendTo, which equal those of the unprepared ReEncrypt, for any
// type label, delegatee identity, nonce and payload. It does so for a
// ciphertext built in process, whose c1 the frame encodes, and for the
// same ciphertext as a store reads it back (UnmarshalTrustedCiphertext),
// whose frame copies c1, the nonce and the payload from the kept bytes.
func FuzzFrameVsReEncrypt(f *testing.F) {
	kgc1, err := ibe.Setup("frame-fuzz-kgc1", nil)
	if err != nil {
		f.Fatal(err)
	}
	kgc2, err := ibe.Setup("frame-fuzz-kgc2", nil)
	if err != nil {
		f.Fatal(err)
	}
	alice := core.NewDelegator(kgc1.Extract("alice@frame-fuzz"))
	f.Add("emergency", "bob@clinic.example", []byte("123456789012"), []byte("record body"))
	f.Add("", "", []byte{}, []byte{})
	f.Add("t#e7", "dr/ü&x", []byte{0}, bytes.Repeat([]byte{0xa5}, 5000))
	f.Fuzz(func(t *testing.T, typ, delegatee string, nonce, payload []byte) {
		m, err := bn254.RandomGT(nil)
		if err != nil {
			t.Fatal(err)
		}
		kem, err := alice.Encrypt(m, core.Type(typ), nil)
		if err != nil {
			t.Fatal(err)
		}
		ct := &Ciphertext{KEM: kem, Nonce: nonce, Payload: payload}
		rk, err := alice.Delegate(kgc2.Params(), delegatee, core.Type(typ), nil)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := ReEncrypt(ct, rk)
		if err != nil {
			t.Fatal(err)
		}
		want := plain.AppendTo(nil)
		stored, err := UnmarshalTrustedCiphertext(ct.Marshal())
		if err != nil {
			t.Fatal(err)
		}

		for _, in := range []struct {
			name string
			ct   *Ciphertext
		}{{"in process", ct}, {"read back", stored}} {
			prk := core.PrepareReKey(rk)
			for _, pass := range []string{"miss", "hit"} {
				var got []byte
				if err := ReEncryptStream([]*Ciphertext{in.ct}, prk, func(frame []byte, _ bool) error {
					got = append(got, frame...)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if _, err := decodeFrame(got); err != nil || !bytes.Equal(got[FrameHeader:], want) {
					t.Fatalf("%s, %s: frame differs from ReEncrypt's encoding (%v)", in.name, pass, err)
				}
				rct, err := ReEncryptPrepared(in.ct, prk)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(rct.AppendTo(nil), want) {
					t.Fatalf("%s, %s: ReEncryptPrepared differs from ReEncrypt", in.name, pass)
				}
			}
		}
	})
}
