package core

import (
	"bytes"
	"testing"

	"typepre/internal/bn254"
	"typepre/internal/ibe"
)

// Fuzz targets for every decode surface of the core scheme. In regular
// test runs Go executes the seed corpus only; `go test -fuzz` explores
// further. The invariant under fuzzing: decoding never panics, and any
// accepted input re-marshals to itself (canonicality).

func seedFixtures(f *testing.F) (*Delegator, [][]byte) {
	f.Helper()
	kgc1, err := setupFuzzKGC("fuzz-kgc1")
	if err != nil {
		f.Fatal(err)
	}
	kgc2, err := setupFuzzKGC("fuzz-kgc2")
	if err != nil {
		f.Fatal(err)
	}
	alice := NewDelegator(kgc1.Extract("alice@fuzz"))
	m, err := randomGTForFuzz()
	if err != nil {
		f.Fatal(err)
	}
	ct, err := alice.Encrypt(m, "fuzz-type", nil)
	if err != nil {
		f.Fatal(err)
	}
	rk, err := alice.Delegate(kgc2.Params(), "bob@fuzz", "fuzz-type", nil)
	if err != nil {
		f.Fatal(err)
	}
	rct, err := ReEncrypt(ct, rk)
	if err != nil {
		f.Fatal(err)
	}
	return alice, [][]byte{ct.Marshal(), rk.Marshal(), rct.Marshal()}
}

func FuzzUnmarshalCiphertext(f *testing.F) {
	_, seeds := seedFixtures(f)
	f.Add(seeds[0])
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 700))
	f.Fuzz(func(t *testing.T, data []byte) {
		ct, err := UnmarshalCiphertext(data)
		if err != nil {
			return
		}
		if !bytes.Equal(ct.Marshal(), data) {
			t.Fatal("accepted non-canonical ciphertext encoding")
		}
	})
}

func FuzzUnmarshalReKey(f *testing.F) {
	_, seeds := seedFixtures(f)
	f.Add(seeds[1])
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		rk, err := UnmarshalReKey(data)
		if err != nil {
			return
		}
		if !bytes.Equal(rk.Marshal(), data) {
			t.Fatal("accepted non-canonical rekey encoding")
		}
	})
}

func FuzzUnmarshalReCiphertext(f *testing.F) {
	_, seeds := seedFixtures(f)
	f.Add(seeds[2])
	f.Add(bytes.Repeat([]byte{1}, 1200))
	f.Fuzz(func(t *testing.T, data []byte) {
		rct, err := UnmarshalReCiphertext(data)
		if err != nil {
			return
		}
		if !bytes.Equal(rct.Marshal(), data) {
			t.Fatal("accepted non-canonical reciphertext encoding")
		}
	})
}

// Helpers shared by the fuzz targets (kept free of *testing.T so they can
// run inside testing.F setup).

func setupFuzzKGC(name string) (*ibe.KGC, error) { return ibe.Setup(name, nil) }

func randomGTForFuzz() (*bn254.GT, error) {
	m, err := bn254.RandomGT(nil)
	return m, err
}
