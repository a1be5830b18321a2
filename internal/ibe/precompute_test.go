package ibe

import (
	"fmt"
	"math/big"
	"testing"

	"typepre/internal/bn254"
)

// TestEncryptionMaskMatchesNaive pins the cached per-identity mask to a
// fresh bn254.Pair computation.
func TestEncryptionMaskMatchesNaive(t *testing.T) {
	kgc, err := Setup("mask-kgc", nil)
	if err != nil {
		t.Fatal(err)
	}
	params := kgc.Params()
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("user-%d@example", i)
		want := bn254.Pair(PublicKeyOf(id), params.PK)
		got := params.EncryptionMask(id)
		if !got.Equal(want) {
			t.Fatalf("id %q: cached mask != naive pairing", id)
		}
		if params.EncryptionMask(id) != got {
			t.Fatalf("id %q: second lookup did not hit the cache", id)
		}
	}
}

// TestEncryptCachedMatchesBareParams pins ciphertexts produced through
// parameters with precomputation state to ciphertexts produced through a
// caller-built bare Params literal (no cache), using identical randomness.
func TestEncryptCachedMatchesBareParams(t *testing.T) {
	kgc, err := Setup("bare-kgc", nil)
	if err != nil {
		t.Fatal(err)
	}
	cached := kgc.Params()
	bare := &Params{Name: cached.Name, PK: cached.PK}

	m, err := bn254.RandomGT(nil)
	if err != nil {
		t.Fatal(err)
	}
	r := big.NewInt(0x1357)
	const id = "bare@example"
	ctCached := encryptWithR(cached, id, m, r)
	ctBare := encryptWithR(bare, id, m, r)
	if !ctCached.C1.Equal(ctBare.C1) || !ctCached.C2.Equal(ctBare.C2) {
		t.Fatal("cached-params ciphertext differs from bare-params ciphertext")
	}

	sk := kgc.Extract(id)
	got, err := Decrypt(sk, ctCached)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatal("decryption of cached-params ciphertext failed")
	}
}

// TestEncryptionMaskEviction drives the cache past its limit and checks the
// masks stay correct through the wholesale eviction.
func TestEncryptionMaskEviction(t *testing.T) {
	if testing.Short() {
		t.Skip("eviction sweep is slow")
	}
	kgc, err := Setup("evict-kgc", nil)
	if err != nil {
		t.Fatal(err)
	}
	params := kgc.Params()
	// Shrink the effective limit by pre-filling the real map directly.
	params.pre.mu.Lock()
	for i := 0; i < maskCacheLimit; i++ {
		params.pre.masks[fmt.Sprintf("filler-%d", i)] = bn254.GTBase()
	}
	params.pre.mu.Unlock()

	const id = "post-eviction@example"
	want := bn254.Pair(PublicKeyOf(id), params.PK)
	if !params.EncryptionMask(id).Equal(want) {
		t.Fatal("mask wrong after eviction")
	}
	params.pre.mu.Lock()
	n := len(params.pre.masks)
	params.pre.mu.Unlock()
	if n > 1 {
		t.Fatalf("cache not evicted: %d entries", n)
	}
}
