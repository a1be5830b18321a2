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
		if n := testing.AllocsPerRun(10, func() { prk.Lookup(ct) }); n != 0 {
			t.Fatalf("ct %d: warm lookup allocates %v times per call", i, n)
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

// cacheFixture prepares a proxy key counted into its own stats and one
// ciphertext it can transform.
func cacheFixture(t *testing.T) (*Ciphertext, *ReKey, *PreparedReKey, *CacheStats) {
	t.Helper()
	kgc1, err := ibe.Setup("cache-kgc1", nil)
	if err != nil {
		t.Fatal(err)
	}
	kgc2, err := ibe.Setup("cache-kgc2", nil)
	if err != nil {
		t.Fatal(err)
	}
	alice := NewDelegator(kgc1.Extract("alice@cache"))
	m, err := bn254.RandomGT(nil)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := alice.Encrypt(m, "t", nil)
	if err != nil {
		t.Fatal(err)
	}
	rk, err := alice.Delegate(kgc2.Params(), "bob@cache", "t", nil)
	if err != nil {
		t.Fatal(err)
	}
	stats := new(CacheStats)
	return ct, rk, PrepareReKeyCounted(rk, stats), stats
}

// withC2 returns ct with c2 multiplied by g: the same c1, another c2.
func withC2(ct *Ciphertext, g *bn254.GT) *Ciphertext {
	var c2 bn254.GT
	c2.Mul(ct.C2, g)
	return &Ciphertext{C1: ct.C1, C2: &c2, Type: ct.Type}
}

func assertCounts(t *testing.T, stats *CacheStats, hits, misses, evictions uint64) {
	t.Helper()
	if h, m, e := stats.Counts(); h != hits || m != misses || e != evictions {
		t.Fatalf("cache counts (hits, misses, evictions) = (%d, %d, %d), want (%d, %d, %d)", h, m, e, hits, misses, evictions)
	}
}

// TestCacheKeyIsC1AndC2 checks that the cache keys on the ciphertext's
// content, both c1 and c2: a byte-identical re-upload (a fresh decode of
// the same bytes, checked or as a store reads it back) hits, and a
// ciphertext that reuses c1 with another c2 misses and gets its own c2′.
func TestCacheKeyIsC1AndC2(t *testing.T) {
	ct, rk, prk, stats := cacheFixture(t)
	if e, err := prk.Lookup(ct); e != nil || err != nil {
		t.Fatalf("cold lookup = %v, %v; want a miss", e, err)
	}
	first, err := prk.ReEncrypt(ct)
	if err != nil {
		t.Fatal(err)
	}
	assertCounts(t, stats, 0, 1, 0)

	reupload, err := UnmarshalCiphertext(ct.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	got, err := prk.ReEncrypt(reupload)
	if err != nil {
		t.Fatal(err)
	}
	if !got.C2.Equal(first.C2) {
		t.Fatal("re-upload got another c2′")
	}
	assertCounts(t, stats, 1, 1, 0)

	// A store's read-back decodes without point checks to the same limbs.
	readBack, err := UnmarshalTrustedCiphertext(ct.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if e, err := prk.Lookup(readBack); e == nil || err != nil {
		t.Fatalf("read-back lookup = %v, %v; want a hit", e, err)
	}
	assertCounts(t, stats, 2, 1, 0)

	sibling := withC2(ct, bn254.GTBase())
	if e, _ := prk.Lookup(sibling); e != nil {
		t.Fatal("a ciphertext sharing only c1 hit the cache")
	}
	got, err = prk.ReEncrypt(sibling)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ReEncrypt(sibling, rk)
	if err != nil {
		t.Fatal(err)
	}
	if got.C2.Equal(first.C2) || !got.C2.Equal(want.C2) {
		t.Fatal("a ciphertext sharing only c1 was served the other's c2′")
	}
	assertCounts(t, stats, 2, 2, 0)
}

// TestCacheEvictsOneEntry fills the cache to its limit with distinct
// ciphertexts and checks that the next one evicts exactly one entry, and
// that what is cached stays correct.
func TestCacheEvictsOneEntry(t *testing.T) {
	if testing.Short() {
		t.Skip("pays cacheLimit+1 pairings")
	}
	ct, rk, prk, stats := cacheFixture(t)
	g := new(bn254.GT).Div(bn254.GTBase(), bn254.GTBase()) // 1
	next := func() *Ciphertext {
		g.Mul(g, bn254.GTBase())
		return withC2(ct, g)
	}
	for i := 0; i < cacheLimit; i++ {
		if _, err := prk.Transform(next()); err != nil {
			t.Fatal(err)
		}
	}
	assertCounts(t, stats, 0, cacheLimit, 0)
	last := next()
	if _, err := prk.Transform(last); err != nil {
		t.Fatal(err)
	}
	assertCounts(t, stats, 0, cacheLimit+1, 1)
	prk.mu.RLock()
	n := len(prk.cache)
	prk.mu.RUnlock()
	if n != cacheLimit {
		t.Fatalf("cache holds %d entries, want %d", n, cacheLimit)
	}
	got, err := prk.ReEncrypt(last)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ReEncrypt(last, rk)
	if err != nil {
		t.Fatal(err)
	}
	if !got.C2.Equal(want.C2) {
		t.Fatal("cached c2′ differs from the plain transformation")
	}
	assertCounts(t, stats, 1, cacheLimit+1, 1)
}
