package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"typepre/internal/bn254"
	"typepre/internal/ibe"
)

// TestPreparedReKeyMatchesReEncrypt pins the prepared transformation to the
// plain one: identical outputs on first use and on cache hits.
func TestPreparedReKeyMatchesReEncrypt(t *testing.T) {
	kgc1, err := ibe.Setup("prk-kgc1", nil)
	if err != nil {
		t.Fatal(err)
	}
	kgc2, err := ibe.Setup("prk-kgc2", nil)
	if err != nil {
		t.Fatal(err)
	}
	alice := NewDelegator(kgc1.Extract("alice@prk"))
	bobKey := kgc2.Extract("bob@prk")

	m, err := bn254.RandomGT(nil)
	if err != nil {
		t.Fatal(err)
	}
	rk, err := alice.Delegate(kgc2.Params(), "bob@prk", "t", nil)
	if err != nil {
		t.Fatal(err)
	}
	prk := PrepareReKey(rk)
	if prk.ReKey() != rk {
		t.Fatal("PreparedReKey does not expose the wrapped rekey")
	}

	for i := 0; i < 3; i++ {
		ct, err := alice.Encrypt(m, "t", nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ReEncrypt(ct, rk)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 2; rep++ { // second pass exercises the cache hit
			got, err := prk.ReEncrypt(ct)
			if err != nil {
				t.Fatal(err)
			}
			if !got.C1.Equal(want.C1) || !got.C2.Equal(want.C2) || got.Type != want.Type {
				t.Fatalf("ct %d rep %d: prepared re-encryption differs from plain", i, rep)
			}
			dec, err := DecryptReEncrypted(bobKey, got)
			if err != nil {
				t.Fatal(err)
			}
			if !dec.Equal(m) {
				t.Fatalf("ct %d rep %d: delegatee decryption failed", i, rep)
			}
		}
		// A warm hit builds its cache key on the stack.
		if n := testing.AllocsPerRun(10, func() { prk.adjustment(ct.C1) }); n != 0 {
			t.Fatalf("ct %d: warm adjustment allocates %v times per call", i, n)
		}
	}
}

// TestPreparedReKeyConcurrentReEncrypt hammers one prepared key from many
// goroutines over a mix of cold and warm ciphertexts — the access pattern
// of the batch-disclosure worker pool — and pins every output to the plain
// transformation. Run under -race in CI.
func TestPreparedReKeyConcurrentReEncrypt(t *testing.T) {
	kgc1, err := ibe.Setup("prk-cc-kgc1", nil)
	if err != nil {
		t.Fatal(err)
	}
	kgc2, err := ibe.Setup("prk-cc-kgc2", nil)
	if err != nil {
		t.Fatal(err)
	}
	alice := NewDelegator(kgc1.Extract("alice@cc"))
	m, err := bn254.RandomGT(nil)
	if err != nil {
		t.Fatal(err)
	}
	rk, err := alice.Delegate(kgc2.Params(), "bob@cc", "t", nil)
	if err != nil {
		t.Fatal(err)
	}
	prk := PrepareReKey(rk)

	const nCT = 6
	cts := make([]*Ciphertext, nCT)
	want := make([]*ReCiphertext, nCT)
	for i := range cts {
		ct, err := alice.Encrypt(m, "t", nil)
		if err != nil {
			t.Fatal(err)
		}
		cts[i] = ct
		if want[i], err = ReEncrypt(ct, rk); err != nil {
			t.Fatal(err)
		}
	}
	prk.ReEncrypt(cts[0]) // warm one entry so hits and misses interleave

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				j := (g + i) % nCT
				got, err := prk.ReEncrypt(cts[j])
				if err != nil {
					errs <- err
					return
				}
				if !got.C1.Equal(want[j].C1) || !got.C2.Equal(want[j].C2) || got.Type != want[j].Type {
					errs <- fmt.Errorf("goroutine %d: ct %d diverged from plain ReEncrypt", g, j)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPreparedReKeyTypeMismatch keeps the type-enforcement behavior of the
// plain path.
func TestPreparedReKeyTypeMismatch(t *testing.T) {
	kgc1, err := ibe.Setup("prk-mm-kgc1", nil)
	if err != nil {
		t.Fatal(err)
	}
	kgc2, err := ibe.Setup("prk-mm-kgc2", nil)
	if err != nil {
		t.Fatal(err)
	}
	alice := NewDelegator(kgc1.Extract("alice@mm"))
	m, err := bn254.RandomGT(nil)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := alice.Encrypt(m, "type-a", nil)
	if err != nil {
		t.Fatal(err)
	}
	rk, err := alice.Delegate(kgc2.Params(), "bob@mm", "type-b", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PrepareReKey(rk).ReEncrypt(ct); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("got %v, want ErrTypeMismatch", err)
	}
	if _, err := PrepareReKey(rk).ReEncrypt(nil); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("got %v, want ErrDecrypt", err)
	}
}
