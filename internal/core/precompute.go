package core

import (
	"sync"

	"typepre/internal/bn254"
)

// adjCacheLimit bounds the per-ciphertext adjustment cache of one prepared
// proxy key. On overflow the cache is dropped wholesale; entries are cheap
// to recompute (one pairing) and real workloads concentrate on a small hot
// set of records.
const adjCacheLimit = 1024

// PreparedReKey wraps a proxy re-encryption key for a long-lived proxy
// deployment. The transformation ReEncrypt applies is deterministic per
// (ciphertext, rekey): its only expensive part is ê(rk, c1), which depends
// on nothing but the rekey and the ciphertext randomizer c1. A proxy that
// serves the same sealed record repeatedly — the normal PHR pattern, where
// records are written once and disclosed many times — can therefore cache
// the adjustment per c1 and make repeat transformations pairing-free.
//
// PreparedReKey is safe for concurrent use.
type PreparedReKey struct {
	rk *ReKey

	mu  sync.RWMutex
	adj map[[bn254.G2Size]byte]*bn254.GT // phrlint:guardedby mu — ê(rk, c1) keyed by marshaled c1
}

// PrepareReKey wraps a proxy key for reuse across requests.
func PrepareReKey(rk *ReKey) *PreparedReKey {
	return &PreparedReKey{rk: rk, adj: make(map[[bn254.G2Size]byte]*bn254.GT)}
}

// ReKey returns the underlying proxy key.
func (p *PreparedReKey) ReKey() *ReKey { return p.rk }

// adjustment returns ê(rk, c1), cached per ciphertext randomizer. The hot
// (cache-hit) path takes only a read lock so a batch worker pool serving
// warm records does not serialize on the cache.
func (p *PreparedReKey) adjustment(c1 *bn254.G2) *bn254.GT {
	var key [bn254.G2Size]byte
	c1.MarshalTo(&key)
	p.mu.RLock()
	a, ok := p.adj[key]
	p.mu.RUnlock()
	if ok {
		return a
	}

	// Pair outside the lock; a duplicated first computation is harmless
	// and identical.
	a = bn254.Pair(p.rk.RK, c1)

	p.mu.Lock()
	if len(p.adj) >= adjCacheLimit {
		p.adj = make(map[[bn254.G2Size]byte]*bn254.GT)
	}
	p.adj[key] = a
	p.mu.Unlock()
	return a
}

// ReEncrypt performs the same transformation as the package-level ReEncrypt
// (the paper's Preenc) with the cached adjustment: the first call for a
// given ciphertext pays one pairing, repeats are pairing-free. Outputs are
// identical to ReEncrypt's.
func (p *PreparedReKey) ReEncrypt(ct *Ciphertext) (*ReCiphertext, error) {
	if p == nil {
		return nil, ErrDecrypt
	}
	if err := validateReEncrypt(ct, p.rk); err != nil {
		return nil, err
	}
	return reEncryptWithAdjustment(ct, p.rk, p.adjustment(ct.C1)), nil
}
