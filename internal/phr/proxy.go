package phr

import (
	"errors"
	"fmt"
	"sync"

	"typepre/internal/core"
	"typepre/internal/hybrid"
)

// Proxy errors.
var (
	ErrNoGrant = errors.New("phr: no re-encryption grant for this request")
	// ErrStaleGrant marks a grant that predates the category's key
	// rotation: it is still installed, but the records have been re-sealed
	// under a newer type epoch and the rekey can no longer transform them.
	ErrStaleGrant = errors.New("phr: grant predates the category's key rotation")
	// ErrBreakGlassReason is returned when the break-glass path is invoked
	// without a reason; the audited reason is mandatory.
	ErrBreakGlassReason = errors.New("phr: break-glass access requires a reason")
)

// grantKey identifies one installed delegation by its *logical* category:
// a rotation-epoch rekey for "emergency#e2" is keyed under "emergency", so
// re-granting after a rotation replaces the stale grant instead of
// accumulating one entry per epoch.
type grantKey struct {
	patient   string
	category  Category
	requester string
}

// Proxy is a re-encryption proxy server (§5: the patient picks one proxy
// per category "according to trust"). It holds the re-encryption keys
// installed by patients and transforms sealed records on request. It never
// sees plaintext: a proxy key lets it re-encrypt, not decrypt.
type Proxy struct {
	name  string
	audit *AuditLog

	mu     sync.RWMutex
	grants map[grantKey]*core.PreparedReKey // phrlint:guardedby mu

	// cache counts the c2′ cache traffic of every grant this proxy has
	// prepared; served by GET /v1/metrics.
	cache core.CacheStats
}

// NewProxy creates a proxy with its own audit log.
func NewProxy(name string) *Proxy {
	return &Proxy{name: name, audit: NewAuditLog(), grants: map[grantKey]*core.PreparedReKey{}}
}

// Name returns the proxy's deployment name.
func (p *Proxy) Name() string { return p.name }

// Audit exposes the proxy's audit log.
func (p *Proxy) Audit() *AuditLog { return p.audit }

// Install registers a re-encryption grant, preparing it for reuse across
// requests. The rekey's own metadata determines the (patient, category,
// requester) triple, so a mislabeled installation is impossible. A rekey
// for a newer rotation epoch of the same logical category replaces the
// stale grant (and its c2′ cache) outright.
func (p *Proxy) Install(rk *core.ReKey) error {
	if rk == nil || rk.RK == nil {
		return fmt.Errorf("phr: invalid rekey")
	}
	k := grantKey{rk.DelegatorID, BaseCategory(rk.Type), rk.DelegateeID}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.grants[k] = core.PrepareReKeyCounted(rk, &p.cache)
	return nil
}

// Revoke removes a grant. Returns ErrNoGrant when absent. Removal drops
// the prepared rekey — and with it the cached c2′ encodings — so a
// revoked pair cannot be served from any warm cache, and any in-flight
// streaming disclosure for the pair terminates before its next record.
//
// Like Install, Revoke keys the grant by its logical category, so a
// rotation-epoch wire type ("medication#e1") revokes the grant it names.
func (p *Proxy) Revoke(patientID string, c Category, requester string) error {
	k := grantKey{patientID, BaseCategory(c), requester}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.grants[k]; !ok {
		return ErrNoGrant
	}
	delete(p.grants, k)
	return nil
}

// lookup finds the prepared grant for a request.
func (p *Proxy) lookup(patientID string, c Category, requester string) (*core.PreparedReKey, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	rk, ok := p.grants[grantKey{patientID, c, requester}]
	return rk, ok
}

// disclosure names what one disclosure request releases and how the
// engine audits it.
type disclosure struct {
	patientID string
	category  Category
	requester string
	recordID  string  // the one record asked for; "" for a whole category
	outcome   Outcome // audit outcome of each released record
	note      string  // carried by every entry (the break-glass reason)
}

// DiscloseCategoryStream is the bulk-disclosure path (§5: "the PHR data
// can be disclosed on demand by the proxy"): it re-encrypts every record
// of (patient, category) toward the requester and calls yield once per
// record, in insertion order, with its wire frame (hybrid.ReEncryptStream
// documents the frame and the wait flag; the frame's buffer is reused
// after yield returns). Records served from the grant's c2′ cache are
// copied out on the calling goroutine; records that need a pairing fan out
// across a bounded worker pool, so memory stays bounded by the pool size,
// not the record count, and the HTTP layer writes frames to the wire as
// they are produced.
//
// Revocation wins over an in-flight stream: before each record is
// released, the grant is re-checked, and a pair revoked (or re-keyed)
// mid-stream stops the stream with ErrNoGrant before the next record
// leaves the proxy.
//
// One granted entry is audited per disclosed record; a denial or a failed
// transformation is audited once.
func (p *Proxy) DiscloseCategoryStream(store Backend, patientID string, c Category, requester string, yield func(frame []byte, wait bool) error) error {
	return p.disclose(disclosure{patientID: patientID, category: c, requester: requester, outcome: OutcomeGranted},
		func() ([]*EncryptedRecord, error) { return store.ListByPatientCategory(patientID, c) }, yield)
}

// BreakGlass is the emergency-access bulk disclosure path: identical
// cryptographic enforcement to DiscloseCategoryStream — break-glass does
// not bypass the grant table, it uses a pre-authorized emergency grant —
// but every released record is audited with the distinguishable
// OutcomeBreakGlass and the mandatory reason, and denials carry the reason
// too, so an emergency access can never hide among routine disclosures.
func (p *Proxy) BreakGlass(store Backend, patientID string, c Category, requester, reason string, yield func(frame []byte, wait bool) error) error {
	if reason == "" {
		return ErrBreakGlassReason
	}
	return p.disclose(disclosure{patientID: patientID, category: c, requester: requester, outcome: OutcomeBreakGlass, note: reason},
		func() ([]*EncryptedRecord, error) { return store.ListByPatientCategory(patientID, c) }, yield)
}

// disclose is the one disclosure engine behind every entry point. It
// checks the grant, and only then fetches the records, so a denied
// request reads nothing from the store. It checks every record's sealed
// epoch against the grant, re-encrypts through hybrid.ReEncryptStream
// into wire frames, re-checks the grant before each release, and audits
// each record after delivery.
func (p *Proxy) disclose(d disclosure, fetch func() ([]*EncryptedRecord, error), yield func(frame []byte, wait bool) error) error {
	audit := func(o Outcome, recordID string) {
		p.audit.Append(AuditEntry{
			Proxy: p.name, PatientID: d.patientID, RecordID: recordID,
			Category: d.category, Requester: d.requester, Outcome: o, Note: d.note,
		})
	}
	rk, ok := p.lookup(d.patientID, d.category, d.requester)
	if !ok {
		audit(OutcomeNoGrant, d.recordID)
		return fmt.Errorf("%w: %s/%s for %s", ErrNoGrant, d.patientID, d.category, d.requester)
	}
	recs, err := fetch()
	if err != nil {
		audit(OutcomeError, d.recordID)
		return err
	}
	grantType := rk.ReKey().Type
	cts := make([]*hybrid.Ciphertext, len(recs))
	for i, rec := range recs {
		if rec.Sealed.KEM.Type != grantType {
			audit(OutcomeStaleGrant, rec.ID)
			return fmt.Errorf("%w: %s/%s for %s (grant epoch %q, records sealed as %q)",
				ErrStaleGrant, d.patientID, d.category, d.requester, grantType, rec.Sealed.KEM.Type)
		}
		cts[i] = rec.Sealed
	}
	next := 0
	var yieldErr error // consumer rejection, not a transformation failure
	revoked := false
	err = hybrid.ReEncryptStream(cts, rk, func(frame []byte, wait bool) error {
		rec := recs[next]
		next++
		// Re-check liveness before the record leaves the proxy: a revoked
		// pair — or one re-keyed to a fresh grant — must not keep being
		// served from the snapshot this request started with.
		if cur, live := p.lookup(d.patientID, d.category, d.requester); !live || cur != rk {
			revoked = true
			return fmt.Errorf("%w: %s/%s for %s (revoked mid-stream)", ErrNoGrant, d.patientID, d.category, d.requester)
		}
		if e := yield(frame, wait); e != nil {
			yieldErr = e
			return e
		}
		// Audit after delivery, so the log records what actually left the
		// proxy: a record whose frame never reached the consumer is not
		// logged as disclosed.
		audit(d.outcome, rec.ID)
		return nil
	})
	// A mid-stream revocation is audited as the denial it is; only a
	// re-encryption failure is a proxy error; a consumer that stops the
	// stream (client disconnect, cancel) has every delivered record
	// audited already.
	switch {
	case revoked:
		audit(OutcomeNoGrant, d.recordID)
	case err != nil && yieldErr == nil:
		audit(OutcomeError, d.recordID)
	}
	return err
}

// CompromisedGrants models a corrupted proxy: the attacker walks away with
// every installed rekey. Used by the E6 blast-radius experiment.
func (p *Proxy) CompromisedGrants() []*core.ReKey {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]*core.ReKey, 0, len(p.grants))
	for _, rk := range p.grants {
		out = append(out, rk.ReKey())
	}
	return out
}
