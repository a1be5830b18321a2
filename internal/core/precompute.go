package core

import (
	"crypto/sha256"
	"sync"
	"sync/atomic"

	"typepre/internal/bn254"
	"typepre/internal/ibe"
)

// cacheLimit bounds the entries of one prepared key's cache. A full cache
// evicts one entry, picked at random, per new entry: an evicted record
// costs one pairing when it is next disclosed, and real workloads
// concentrate on a small hot set of records.
const cacheLimit = 1024

// ReEncoding is the part of a re-encryption that depends on the
// ciphertext's content: the 384-byte encoding of c2′ = c2·ê(rk, c1). The
// rest of the re-encrypted ciphertext is c1, which the transformation
// keeps, and the proxy key's constant type, identities and EncX.
type ReEncoding [bn254.GTSize]byte

// CacheStats counts what the caches of prepared keys did. One value may
// be shared by many keys, such as every grant of one proxy.
type CacheStats struct {
	hits, misses, evictions atomic.Uint64
}

// Counts returns the transformations served from a cache (hits), those
// that paid a pairing (misses), and the entries evicted from full caches.
func (s *CacheStats) Counts() (hits, misses, evictions uint64) {
	return s.hits.Load(), s.misses.Load(), s.evictions.Load()
}

// PreparedReKey wraps a proxy re-encryption key for a long-lived proxy
// deployment. The transformation is deterministic per (ciphertext, rekey),
// and its only expensive part is the pairing ê(rk, c1). A proxy that
// serves the same sealed record repeatedly (the normal PHR pattern, where
// records are written once and disclosed many times) therefore caches
// each ciphertext's finished c2′ encoding, and with the key's constant
// tail encoded once, a repeat transformation is a map lookup and a copy.
//
// Entries are keyed by SHA-256 over c1 and c2 as held in memory
// (bn254's LimbsTo): a byte-identical re-upload hits, and a ciphertext
// that shares c1 with another but carries a different c2 misses.
//
// PreparedReKey is safe for concurrent use.
type PreparedReKey struct {
	rk    *ReKey
	tail  []byte // appendIDs' identity block, then EncX
	stats *CacheStats

	mu    sync.RWMutex
	cache map[[sha256.Size]byte]*ReEncoding // phrlint:guardedby mu — c2′ encodings keyed by cacheKey
}

// PrepareReKey wraps a proxy key for reuse across requests.
func PrepareReKey(rk *ReKey) *PreparedReKey {
	return PrepareReKeyCounted(rk, new(CacheStats))
}

// PrepareReKeyCounted is PrepareReKey counting the cache's hits, misses
// and evictions into stats.
func PrepareReKeyCounted(rk *ReKey, stats *CacheStats) *PreparedReKey {
	p := &PreparedReKey{rk: rk, stats: stats, cache: make(map[[sha256.Size]byte]*ReEncoding)}
	if rk != nil && rk.EncX != nil {
		p.tail = make([]byte, 0, idsSize(rk.Type, rk.DelegatorID, rk.DelegateeID)+ibe.CiphertextSize)
		p.tail = appendIDs(p.tail, rk.Type, rk.DelegatorID, rk.DelegateeID)
		p.tail = append(p.tail, rk.EncX.Marshal()...)
	}
	return p
}

// ReKey returns the underlying proxy key.
func (p *PreparedReKey) ReKey() *ReKey { return p.rk }

// validate checks ct against the prepared key, as ReEncrypt does.
func (p *PreparedReKey) validate(ct *Ciphertext) error {
	if p == nil || p.tail == nil {
		return ErrDecrypt
	}
	return validateReEncrypt(ct, p.rk)
}

// cacheKey identifies ct's (c1, c2) exactly: SHA-256 over their field
// coefficients as held in memory, which skips converting them out of
// Montgomery form. The buffer stays on the stack.
func cacheKey(ct *Ciphertext) [sha256.Size]byte {
	var buf [bn254.G2Size + bn254.GTSize]byte
	ct.C1.LimbsTo((*[bn254.G2Size]byte)(buf[:bn254.G2Size]))
	ct.C2.LimbsTo((*[bn254.GTSize]byte)(buf[bn254.G2Size:]))
	return sha256.Sum256(buf[:])
}

// cached returns the entry under k, counting a hit, or nil.
func (p *PreparedReKey) cached(k *[sha256.Size]byte) *ReEncoding {
	p.mu.RLock()
	e := p.cache[*k]
	p.mu.RUnlock()
	if e != nil {
		p.stats.hits.Add(1)
	}
	return e
}

// Lookup returns ct's cached re-encoding, or nil when computing it needs
// a pairing. It fails, as ReEncrypt does, on a malformed ciphertext or a
// type mismatch. A hit counts as one; a miss counts nothing until
// Transform pays its pairing.
func (p *PreparedReKey) Lookup(ct *Ciphertext) (*ReEncoding, error) {
	if err := p.validate(ct); err != nil {
		return nil, err
	}
	k := cacheKey(ct)
	return p.cached(&k), nil
}

// Transform returns ct's re-encoding: from the cache, or by one pairing
// whose result it caches. The returned entry is never modified.
func (p *PreparedReKey) Transform(ct *Ciphertext) (*ReEncoding, error) {
	if err := p.validate(ct); err != nil {
		return nil, err
	}
	k := cacheKey(ct)
	if e := p.cached(&k); e != nil {
		return e, nil
	}

	// Pair outside the lock; a duplicated first computation is harmless
	// and identical.
	var c2 bn254.GT
	c2.Mul(ct.C2, bn254.Pair(p.rk.RK, ct.C1)) // = m · ê(g₂^r, H1(X))
	e := new(ReEncoding)
	c2.MarshalTo((*[bn254.GTSize]byte)(e))
	p.stats.misses.Add(1)

	p.mu.Lock()
	if _, dup := p.cache[k]; !dup && len(p.cache) >= cacheLimit {
		for victim := range p.cache { // map order is random: a random victim
			delete(p.cache, victim)
			p.stats.evictions.Add(1)
			break
		}
	}
	p.cache[k] = e
	p.mu.Unlock()
	return e, nil
}

// AppendReCiphertext appends to dst the Marshal encoding of the
// re-encryption of a ciphertext from c1, the G2Size bytes of its C1's
// encoding, and its re-encoding e, which Lookup or Transform returned for
// it: c1, then e, then the key's constant tail. It does no field
// arithmetic.
func (p *PreparedReKey) AppendReCiphertext(dst, c1 []byte, e *ReEncoding) []byte {
	dst = append(dst, c1...)
	dst = append(dst, e[:]...)
	return append(dst, p.tail...)
}

// ReEncrypt performs the same transformation as the package-level ReEncrypt
// (the paper's Preenc) through the cache: the first call for a given
// ciphertext pays one pairing, repeats decode the cached c2′. Outputs are
// identical to ReEncrypt's.
func (p *PreparedReKey) ReEncrypt(ct *Ciphertext) (*ReCiphertext, error) {
	e, err := p.Transform(ct)
	if err != nil {
		return nil, err
	}
	var c2 bn254.GT
	if err := c2.Unmarshal(e[:]); err != nil { // cannot fail: e is MarshalTo's output
		return nil, err
	}
	return reCiphertext(ct, p.rk, &c2), nil
}
