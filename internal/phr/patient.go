package phr

import (
	"fmt"
	"io"
	"sync"
	"time"

	"typepre/internal/core"
	"typepre/internal/hybrid"
	"typepre/internal/ibe"
)

// Patient is the data owner: one identity, ONE key pair (the paper's
// headline property), arbitrarily many categories and delegations.
type Patient struct {
	id        string
	delegator *core.Delegator

	mu      sync.Mutex
	nextRec int // phrlint:guardedby mu
	// epochs tracks the current rotation epoch per category; absent means
	// epoch 0 (never rotated). Records and grants are bound to the
	// category's epoch at creation time (core.VersionedType).
	epochs map[Category]int // phrlint:guardedby mu
}

// NewPatient registers a patient at the given KGC and wraps the extracted
// key in a delegator.
func NewPatient(kgc *ibe.KGC, id string) *Patient {
	return &Patient{id: id, delegator: core.NewDelegator(kgc.Extract(id)), epochs: map[Category]int{}}
}

// ID returns the patient identity.
func (p *Patient) ID() string { return p.id }

// Delegator exposes the underlying PRE delegator.
func (p *Patient) Delegator() *core.Delegator { return p.delegator }

// Epoch returns the current rotation epoch of a category (0 = never
// rotated).
func (p *Patient) Epoch(c Category) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.epochs[c]
}

// effectiveType is the wire type new records and grants of a category are
// bound to: the category at its current rotation epoch.
func (p *Patient) effectiveType(c Category) core.Type {
	p.mu.Lock()
	defer p.mu.Unlock()
	return core.VersionedType(core.Type(c), p.epochs[c])
}

// AddRecord encrypts a record body under the given category and stores it.
func (p *Patient) AddRecord(store Backend, c Category, body []byte, rng io.Reader) (*EncryptedRecord, error) {
	sealed, err := hybrid.Encrypt(p.delegator, body, p.effectiveType(c), rng)
	if err != nil {
		return nil, fmt.Errorf("phr: add record: %w", err)
	}
	p.mu.Lock()
	n := p.nextRec
	p.nextRec++
	p.mu.Unlock()

	rec := &EncryptedRecord{
		ID:        recordID(p.id, n),
		PatientID: p.id,
		Category:  c,
		CreatedAt: time.Now(),
		Sealed:    sealed,
	}
	if err := store.Put(rec); err != nil {
		return nil, err
	}
	return rec, nil
}

// Grant creates a per-category re-encryption key toward a requester
// registered at requesterKGC and installs it at the proxy. One call per
// (category, requester); the patient's key pair never changes. The rekey
// is bound to the category's current rotation epoch.
func (p *Patient) Grant(proxy *Proxy, requesterParams *ibe.Params, requesterID string, c Category, rng io.Reader) error {
	rk, err := p.delegator.Delegate(requesterParams, requesterID, p.effectiveType(c), rng)
	if err != nil {
		return fmt.Errorf("phr: grant: %w", err)
	}
	return proxy.Install(rk)
}

// RotateTypeKey moves a category to a fresh type epoch and re-seals every
// stored record of the category under the new epoch's type — the response
// to a suspected key or proxy compromise. Every previously issued grant
// for the category becomes stale (ErrStaleGrant on disclosure) until the
// patient re-grants; the patient's own key pair never changes, and each
// sealed record carries its own wire type, so the owner still opens
// records of every epoch.
//
// Rotation must not race with AddRecord or Grant on the same category: a
// record sealed under the old epoch after the re-seal pass would be
// stranded stale. Returns the number of records re-sealed.
//
// phrlint:root pending Restart without amnesia (ROADMAP)
func (p *Patient) RotateTypeKey(store Backend, c Category, rng io.Reader) (int, error) {
	p.mu.Lock()
	p.epochs[c]++
	epoch := p.epochs[c]
	p.mu.Unlock()

	newType := core.VersionedType(core.Type(c), epoch)
	resealed := 0
	recs, err := store.ListByPatientCategory(p.id, c)
	if err != nil {
		return 0, fmt.Errorf("phr: rotate %s/%s: %w", p.id, c, err)
	}
	for _, rec := range recs {
		if rec.Sealed.KEM.Type == newType {
			continue
		}
		sealed, err := hybrid.Reseal(p.delegator, rec.Sealed, newType, rng)
		if err != nil {
			return resealed, fmt.Errorf("phr: rotate %s/%s: %w", p.id, c, err)
		}
		rec.Sealed = sealed
		if err := store.Replace(rec); err != nil {
			return resealed, fmt.Errorf("phr: rotate %s/%s: %w", p.id, c, err)
		}
		resealed++
	}
	return resealed, nil
}
