package scenario

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"typepre/internal/core"
	"typepre/internal/hybrid"
	"typepre/internal/ibe"
	"typepre/internal/phr"
)

// The four shipped drills. Each constructor materializes its own
// deployment with phr.GenerateWorkloadFrom and a rand.Source derived from
// the seed, so a failing run reproduces exactly (the cryptography itself
// uses crypto/rand and is necessarily randomized — the *structure* is what
// the seed pins).

// drillWorkload builds a single-category corpus with a known shape: one
// patient population, every record in the given category, grants installed
// explicitly by the drill (GrantsPerPatient=0 keeps the generator from
// sampling its own).
func drillWorkload(seed int64, c phr.Category, patients, records int) (*phr.Workload, error) {
	cfg := phr.DefaultWorkload()
	cfg.Seed = seed
	cfg.Patients = patients
	cfg.Requesters = 2
	cfg.Categories = []phr.Category{c}
	cfg.RecordsPerPatient = records
	cfg.GrantsPerPatient = 0
	return phr.GenerateWorkloadFrom(cfg, rand.NewSource(seed))
}

// requesterIDs returns the generated requester identities in a stable
// order (the workload keys them by identity string).
func requesterIDs(w *phr.Workload) []string {
	ids := make([]string, 0, len(w.Requesters))
	for i := 0; len(ids) < len(w.Requesters); i++ {
		id := fmt.Sprintf("clinician-%03d@clinic.example", i)
		if _, ok := w.Requesters[id]; !ok {
			break
		}
		ids = append(ids, id)
	}
	if len(ids) != len(w.Requesters) {
		panic("scenario: workload requester naming changed; update requesterIDs")
	}
	return ids
}

// expectBodies checks that got matches the stored plaintexts of
// (patient, category) in insertion order.
func expectBodies(w *phr.Workload, patientID string, c phr.Category, got [][]byte) error {
	recs, err := w.Service.Store.ListByPatientCategory(patientID, c)
	if err != nil {
		return err
	}
	if len(got) != len(recs) {
		return fmt.Errorf("disclosed %d records, want %d", len(got), len(recs))
	}
	for i, rec := range recs {
		if !bytes.Equal(got[i], w.Bodies[rec.ID]) {
			return fmt.Errorf("record %s: plaintext mismatch", rec.ID)
		}
	}
	return nil
}

// auditOrdered checks the per-proxy ordering invariant: Seq strictly
// increasing from 1 with no gaps, Time never going backwards.
func auditOrdered(entries []phr.AuditEntry) error {
	for i, e := range entries {
		if e.Seq != uint64(i+1) {
			return fmt.Errorf("entry %d has Seq %d, want %d", i, e.Seq, i+1)
		}
		if i > 0 && e.Time.Before(entries[i-1].Time) {
			return fmt.Errorf("entry %d: Time went backwards", i)
		}
	}
	return nil
}

// firstErr keeps the first error reported by a pack of goroutines.
type firstErr struct {
	mu  sync.Mutex
	err error
}

func (f *firstErr) set(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

func (f *firstErr) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// errIs builds the invariant "recorded error is target" over a captured
// error pointer (the step's Run stores the expected failure there).
func errIs(name string, got *error, target error) Invariant {
	return Invariant{Name: name, Check: func() error {
		if !errors.Is(*got, target) {
			// The mismatch report quotes both errors as text on purpose:
			// wrapping the *wanted* sentinel with %w would make errors.Is
			// on the invariant failure match an error that never occurred,
			// and *got may be nil.
			//phrlint:ignore errwrap: want/got are quoted as text; wrapping the expected sentinel would forge an errors.Is match
			return fmt.Errorf("want %v, got %v", target, *got)
		}
		return nil
	}}
}

// RevocationDrill: grant → disclose (warming the prepared-rekey pairing
// cache on every path) → revoke → every disclosure path must fail with
// ErrNoGrant and an audited denial; a revocation racing an in-flight
// stream must kill the stream before its next record.
func RevocationDrill(seed int64) (*Drill, error) {
	const records = 4
	w, err := drillWorkload(seed, phr.CategoryEmergency, 1, records)
	if err != nil {
		return nil, err
	}
	patient := w.Patients[0]
	requester := w.Requesters[requesterIDs(w)[0]]
	proxy, err := w.Service.ProxyFor(phr.CategoryEmergency)
	if err != nil {
		return nil, err
	}

	const reason = "unconscious on arrival"
	var serialErr, bulkErr, streamErr, breakGlassErr error
	streamYields := 0
	var midErr error
	midYields := 0

	return &Drill{
		Name:        "revocation",
		Description: "revoked grants must die on every disclosure path, including the prepared cache and in-flight streams",
		Steps: []Step{
			{
				Name: "grant-and-disclose",
				Run: func() error {
					if err := w.Service.Grant(patient, w.KGC2.Params(), requester.ID, phr.CategoryEmergency); err != nil {
						return err
					}
					// Warm the prepared grant's pairing cache on the
					// single-record path; the bulk invariant below warms
					// the streaming path.
					recs, err := w.Service.Store.ListByPatientCategory(patient.ID(), phr.CategoryEmergency)
					if err != nil {
						return err
					}
					for _, rec := range recs {
						if _, err := w.Service.Read(rec.ID, requester); err != nil {
							return err
						}
					}
					return nil
				},
				Invariants: []Invariant{
					{Name: "grant-installed", Check: func() error {
						if n := proxy.GrantCount(); n != 1 {
							return fmt.Errorf("grant count = %d, want 1", n)
						}
						return nil
					}},
					{Name: "bulk-discloses-all", Check: func() error {
						got, err := w.Service.ReadCategory(patient.ID(), phr.CategoryEmergency, requester)
						if err != nil {
							return err
						}
						return expectBodies(w, patient.ID(), phr.CategoryEmergency, got)
					}},
				},
			},
			{
				Name: "revoke",
				Run: func() error {
					if err := patient.Revoke(proxy, requester.ID, phr.CategoryEmergency); err != nil {
						return err
					}
					// Exercise every disclosure path against the warm
					// cache; invariants assert on the recorded errors.
					recs, err := w.Service.Store.ListByPatientCategory(patient.ID(), phr.CategoryEmergency)
					if err != nil {
						return err
					}
					_, serialErr = w.Service.Request(recs[0].ID, requester.ID)
					_, bulkErr = w.Service.ReadCategory(patient.ID(), phr.CategoryEmergency, requester)
					streamErr = proxy.DiscloseCategoryStream(w.Service.Store, patient.ID(), phr.CategoryEmergency, requester.ID,
						func(*hybrid.ReCiphertext) error { streamYields++; return nil })
					_, breakGlassErr = w.Service.BreakGlass(patient.ID(), requester.ID, reason)
					return nil
				},
				Invariants: []Invariant{
					{Name: "grant-removed", Check: func() error {
						if n := proxy.GrantCount(); n != 0 {
							return fmt.Errorf("grant count = %d, want 0", n)
						}
						return nil
					}},
					errIs("serial-path-denied", &serialErr, phr.ErrNoGrant),
					errIs("bulk-path-denied", &bulkErr, phr.ErrNoGrant),
					errIs("stream-path-denied", &streamErr, phr.ErrNoGrant),
					errIs("break-glass-path-denied", &breakGlassErr, phr.ErrNoGrant),
					{Name: "stream-released-nothing", Check: func() error {
						if streamYields != 0 {
							return fmt.Errorf("revoked stream released %d records", streamYields)
						}
						return nil
					}},
					{Name: "denials-audited", Check: func() error {
						// One denial per refused path.
						if n := len(proxy.Audit().ByOutcome(phr.OutcomeNoGrant)); n != 4 {
							return fmt.Errorf("no-grant audit entries = %d, want 4", n)
						}
						return nil
					}},
				},
			},
			{
				Name: "revoke-mid-stream",
				Run: func() error {
					if err := w.Service.Grant(patient, w.KGC2.Params(), requester.ID, phr.CategoryEmergency); err != nil {
						return err
					}
					midErr = proxy.DiscloseCategoryStream(w.Service.Store, patient.ID(), phr.CategoryEmergency, requester.ID,
						func(*hybrid.ReCiphertext) error {
							midYields++
							if midYields == 1 {
								return patient.Revoke(proxy, requester.ID, phr.CategoryEmergency)
							}
							return nil
						})
					return nil
				},
				Invariants: []Invariant{
					errIs("in-flight-stream-killed", &midErr, phr.ErrNoGrant),
					{Name: "at-most-one-record-escaped", Check: func() error {
						if midYields != 1 {
							return fmt.Errorf("stream released %d records after mid-flight revoke, want 1", midYields)
						}
						return nil
					}},
					{Name: "audit-ordered", Check: func() error {
						return auditOrdered(proxy.Audit().Entries())
					}},
				},
			},
		},
	}, nil
}

// KeyRotationDrill: disclose → rotate the category's type epoch (re-seals
// every record) → the pre-rotation grant must be dead (ErrStaleGrant,
// audited) while the owner still reads everything → a fresh grant
// discloses the same plaintexts.
func KeyRotationDrill(seed int64) (*Drill, error) {
	const records = 3
	w, err := drillWorkload(seed, phr.CategoryMedication, 1, records)
	if err != nil {
		return nil, err
	}
	patient := w.Patients[0]
	requester := w.Requesters[requesterIDs(w)[0]]
	proxy, err := w.Service.ProxyFor(phr.CategoryMedication)
	if err != nil {
		return nil, err
	}

	resealed := 0
	var staleSerialErr, staleBulkErr error

	return &Drill{
		Name:        "key-rotation",
		Description: "rotating a category's type epoch must kill old grants and preserve every plaintext",
		Steps: []Step{
			{
				Name: "grant-and-disclose",
				Run: func() error {
					return w.Service.Grant(patient, w.KGC2.Params(), requester.ID, phr.CategoryMedication)
				},
				Invariants: []Invariant{
					{Name: "pre-rotation-disclosure", Check: func() error {
						got, err := w.Service.ReadCategory(patient.ID(), phr.CategoryMedication, requester)
						if err != nil {
							return err
						}
						return expectBodies(w, patient.ID(), phr.CategoryMedication, got)
					}},
				},
			},
			{
				Name: "rotate",
				Run: func() error {
					var err error
					resealed, err = patient.RotateTypeKey(w.Service.Store, phr.CategoryMedication, nil)
					return err
				},
				Invariants: []Invariant{
					{Name: "all-records-resealed", Check: func() error {
						if resealed != records {
							return fmt.Errorf("re-sealed %d records, want %d", resealed, records)
						}
						if e := patient.Epoch(phr.CategoryMedication); e != 1 {
							return fmt.Errorf("epoch = %d, want 1", e)
						}
						wantType := core.VersionedType(core.Type(phr.CategoryMedication), 1)
						recs, err := w.Service.Store.ListByPatientCategory(patient.ID(), phr.CategoryMedication)
						if err != nil {
							return err
						}
						for _, rec := range recs {
							if rec.Sealed.KEM.Type != wantType {
								return fmt.Errorf("record %s sealed as %q, want %q", rec.ID, rec.Sealed.KEM.Type, wantType)
							}
						}
						return nil
					}},
					{Name: "owner-still-reads", Check: func() error {
						recs, err := w.Service.Store.ListByPatientCategory(patient.ID(), phr.CategoryMedication)
						if err != nil {
							return err
						}
						for _, rec := range recs {
							got, err := patient.ReadOwn(w.Service.Store, rec.ID)
							if err != nil {
								return fmt.Errorf("owner read of %s: %w", rec.ID, err)
							}
							if !bytes.Equal(got, w.Bodies[rec.ID]) {
								return fmt.Errorf("owner read of %s: plaintext mismatch", rec.ID)
							}
						}
						return nil
					}},
				},
			},
			{
				Name: "stale-grant-denied",
				Run: func() error {
					recs, err := w.Service.Store.ListByPatientCategory(patient.ID(), phr.CategoryMedication)
					if err != nil {
						return err
					}
					_, staleSerialErr = w.Service.Request(recs[0].ID, requester.ID)
					staleBulkErr = proxy.DiscloseCategoryStream(w.Service.Store, patient.ID(), phr.CategoryMedication, requester.ID,
						func(*hybrid.ReCiphertext) error { return nil })
					return nil
				},
				Invariants: []Invariant{
					errIs("serial-path-stale", &staleSerialErr, phr.ErrStaleGrant),
					errIs("bulk-path-stale", &staleBulkErr, phr.ErrStaleGrant),
					{Name: "staleness-audited", Check: func() error {
						if n := len(proxy.Audit().ByOutcome(phr.OutcomeStaleGrant)); n != 2 {
							return fmt.Errorf("stale-grant audit entries = %d, want 2", n)
						}
						return nil
					}},
				},
			},
			{
				Name: "re-grant",
				Run: func() error {
					return w.Service.Grant(patient, w.KGC2.Params(), requester.ID, phr.CategoryMedication)
				},
				Invariants: []Invariant{
					{Name: "stale-grant-replaced", Check: func() error {
						if n := proxy.GrantCount(); n != 1 {
							return fmt.Errorf("grant count = %d, want 1 (fresh grant must replace the stale one)", n)
						}
						return nil
					}},
					{Name: "post-rotation-disclosure", Check: func() error {
						got, err := w.Service.ReadCategory(patient.ID(), phr.CategoryMedication, requester)
						if err != nil {
							return err
						}
						return expectBodies(w, patient.ID(), phr.CategoryMedication, got)
					}},
					{Name: "audit-ordered", Check: func() error {
						return auditOrdered(proxy.Audit().Entries())
					}},
				},
			},
		},
	}, nil
}

// BreakGlassDrill: emergency disclosure through a standing emergency grant
// must require a reason, audit every released record distinguishably, and
// never widen access beyond CategoryEmergency or beyond pre-authorized
// responders.
func BreakGlassDrill(seed int64) (*Drill, error) {
	cfg := phr.DefaultWorkload()
	cfg.Seed = seed
	cfg.Patients = 1
	cfg.Requesters = 2
	cfg.Categories = []phr.Category{phr.CategoryEmergency, phr.CategoryMedication}
	cfg.RecordsPerPatient = 0 // records added explicitly below
	cfg.GrantsPerPatient = 0
	w, err := phr.GenerateWorkloadFrom(cfg, rand.NewSource(seed))
	if err != nil {
		return nil, err
	}
	patient := w.Patients[0]
	ids := requesterIDs(w)
	responder, intruder := w.Requesters[ids[0]], w.Requesters[ids[1]]
	proxy, err := w.Service.ProxyFor(phr.CategoryEmergency)
	if err != nil {
		return nil, err
	}

	const reason = "cardiac arrest, ER admission #4711"
	emergency := [][]byte{[]byte("blood type O-"), []byte("allergy: penicillin")}
	var noReasonErr, scopeErr, intruderErr error
	var disclosed [][]byte

	return &Drill{
		Name:        "break-glass",
		Description: "emergency access must be pre-authorized, reasoned, distinguishably audited, and scoped to the emergency category",
		Steps: []Step{
			{
				Name: "provision",
				Run: func() error {
					for _, b := range emergency {
						rec, err := patient.AddRecord(w.Service.Store, phr.CategoryEmergency, b, nil)
						if err != nil {
							return err
						}
						w.Bodies[rec.ID] = b
					}
					rec, err := patient.AddRecord(w.Service.Store, phr.CategoryMedication, []byte("private"), nil)
					if err != nil {
						return err
					}
					w.Bodies[rec.ID] = []byte("private")
					// The responder holds a standing emergency grant;
					// break-glass cannot conjure access never delegated.
					return w.Service.Grant(patient, w.KGC2.Params(), responder.ID, phr.CategoryEmergency)
				},
				Invariants: []Invariant{
					{Name: "standing-grant-installed", Check: func() error {
						if n := proxy.GrantCount(); n != 1 {
							return fmt.Errorf("grant count = %d, want 1", n)
						}
						return nil
					}},
				},
			},
			{
				Name: "reason-required",
				Run: func() error {
					_, noReasonErr = w.Service.BreakGlass(patient.ID(), responder.ID, "")
					return nil
				},
				Invariants: []Invariant{
					errIs("missing-reason-rejected", &noReasonErr, phr.ErrBreakGlassReason),
					{Name: "no-audit-traffic-before-reason", Check: func() error {
						if n := proxy.Audit().Len(); n != 0 {
							return fmt.Errorf("reason-less attempt produced %d audit entries", n)
						}
						return nil
					}},
				},
			},
			{
				Name: "break-glass",
				Run: func() error {
					rcts, err := w.Service.BreakGlass(patient.ID(), responder.ID, reason)
					if err != nil {
						return err
					}
					for _, rct := range rcts {
						body, err := hybrid.DecryptReEncrypted(responder, rct)
						if err != nil {
							return err
						}
						disclosed = append(disclosed, body)
					}
					return nil
				},
				Invariants: []Invariant{
					{Name: "emergency-records-disclosed", Check: func() error {
						return expectBodies(w, patient.ID(), phr.CategoryEmergency, disclosed)
					}},
					{Name: "distinguishably-audited-with-reason", Check: func() error {
						entries := proxy.Audit().ByOutcome(phr.OutcomeBreakGlass)
						if len(entries) != len(emergency) {
							return fmt.Errorf("break-glass audit entries = %d, want %d", len(entries), len(emergency))
						}
						for _, e := range entries {
							if e.Note != reason {
								return fmt.Errorf("entry %d lost its reason: %q", e.Seq, e.Note)
							}
						}
						return nil
					}},
					{Name: "not-counted-as-denial", Check: func() error {
						if n := len(proxy.Audit().Denials()); n != 0 {
							return fmt.Errorf("break-glass produced %d denial entries", n)
						}
						return nil
					}},
					{Name: "audit-ordered", Check: func() error {
						return auditOrdered(proxy.Audit().Entries())
					}},
				},
			},
			{
				Name: "scope-enforced",
				Run: func() error {
					_, scopeErr = w.Service.ReadCategory(patient.ID(), phr.CategoryMedication, responder)
					_, intruderErr = w.Service.BreakGlass(patient.ID(), intruder.ID, reason)
					return nil
				},
				Invariants: []Invariant{
					errIs("other-categories-stay-closed", &scopeErr, phr.ErrNoGrant),
					errIs("unauthorized-responder-denied", &intruderErr, phr.ErrNoGrant),
					{Name: "denial-carries-reason", Check: func() error {
						denials := proxy.Audit().Denials()
						if len(denials) != 1 {
							return fmt.Errorf("emergency-proxy denials = %d, want 1", len(denials))
						}
						d := denials[0]
						if d.Outcome != phr.OutcomeNoGrant || d.Requester != intruder.ID || d.Note != reason {
							return fmt.Errorf("denial = %+v, want no-grant by %s with the reason on record", d, intruder.ID)
						}
						return nil
					}},
				},
			},
		},
	}, nil
}

// FederationChurnDrill: cross-KGC delegation (the root package's
// Example_multidomain story at workload scale — a third domain's params
// cross the wire serialized) under grant/revoke churn with concurrent
// disclosures. The churned pair flaps between granted and denied; a
// steady grant from another domain must never be disturbed. Run
// race-clean under `go test -race`.
func FederationChurnDrill(seed int64) (*Drill, error) {
	// Small but real: every combination of {writer flap, racing reader,
	// steady reader} still interleaves, and the whole drill stays cheap
	// enough to run under -race in CI.
	const (
		patients = 2
		records  = 2
		rounds   = 3
	)
	w, err := drillWorkload(seed, phr.CategoryEmergency, patients, records)
	if err != nil {
		return nil, err
	}
	steady := w.Requesters[requesterIDs(w)[0]] // domain 2 (KGC2) clinician
	proxy, err := w.Service.ProxyFor(phr.CategoryEmergency)
	if err != nil {
		return nil, err
	}

	// Domain 3: an unrelated KGC whose params reach the patients only in
	// serialized form, as in the root package's Example_multidomain.
	kgc3, err := ibe.Setup("phr-kgc3", nil)
	if err != nil {
		return nil, err
	}
	importedParams, err := ibe.UnmarshalParams(kgc3.Params().Marshal())
	if err != nil {
		return nil, fmt.Errorf("scenario: params wire round-trip: %w", err)
	}
	specialist := kgc3.Extract("specialist-007@kgc3.example")

	var (
		churnOK, churnDenied atomic.Int64
		churnUnexpected      firstErr // first unexpected outcome, if any
		steadyFailure        firstErr // first steady-pair failure, if any
	)

	return &Drill{
		Name:        "federation-churn",
		Description: "cross-KGC delegation must survive grant/revoke churn with concurrent disclosures, without disturbing other domains' grants",
		Steps: []Step{
			{
				Name: "federate",
				Run: func() error {
					for _, p := range w.Patients {
						if err := w.Service.Grant(p, w.KGC2.Params(), steady.ID, phr.CategoryEmergency); err != nil {
							return err
						}
						// The cross-domain grant goes through the
						// wire-imported params, not the live KGC3 object.
						if err := p.Grant(proxy, importedParams, specialist.ID, phr.CategoryEmergency, nil); err != nil {
							return err
						}
					}
					return nil
				},
				Invariants: []Invariant{
					{Name: "cross-domain-disclosure", Check: func() error {
						for _, p := range w.Patients {
							got, err := w.Service.ReadCategory(p.ID(), phr.CategoryEmergency, specialist)
							if err != nil {
								return fmt.Errorf("specialist read of %s: %w", p.ID(), err)
							}
							if err := expectBodies(w, p.ID(), phr.CategoryEmergency, got); err != nil {
								return fmt.Errorf("specialist read of %s: %w", p.ID(), err)
							}
						}
						return nil
					}},
					{Name: "all-grants-installed", Check: func() error {
						if n := proxy.GrantCount(); n != 2*patients {
							return fmt.Errorf("grant count = %d, want %d", n, 2*patients)
						}
						return nil
					}},
				},
			},
			{
				Name: "churn",
				Run: func() error {
					var writers, readers sync.WaitGroup
					done := make(chan struct{})
					// One writer per patient flaps the specialist's grant:
					// revoke → a disclosure attempt that MUST be denied →
					// re-grant → a disclosure that MUST succeed. The
					// denied/granted outcomes are deterministic because the
					// writer owns the pair's grant lifecycle.
					for _, p := range w.Patients {
						writers.Add(1)
						go func(p *phr.Patient) {
							defer writers.Done()
							for i := 0; i < rounds; i++ {
								if err := p.Revoke(proxy, specialist.ID, phr.CategoryEmergency); err != nil {
									churnUnexpected.set(fmt.Errorf("revoke round %d: %w", i, err))
									return
								}
								if _, err := w.Service.ReadCategory(p.ID(), phr.CategoryEmergency, specialist); !errors.Is(err, phr.ErrNoGrant) {
									// err is nil when the revoked pair was wrongly served — the
									// failure being reported — so it cannot be wrapped with %w.
									//phrlint:ignore errwrap: err is nil on the disclosed-after-revoke path; %w of nil would malform the report
									churnUnexpected.set(fmt.Errorf("round %d: revoked pair disclosed (err=%v)", i, err))
									return
								}
								churnDenied.Add(1)
								if err := p.Grant(proxy, importedParams, specialist.ID, phr.CategoryEmergency, nil); err != nil {
									churnUnexpected.set(fmt.Errorf("re-grant round %d: %w", i, err))
									return
								}
								got, err := w.Service.ReadCategory(p.ID(), phr.CategoryEmergency, specialist)
								if err != nil {
									churnUnexpected.set(fmt.Errorf("round %d: fresh grant denied: %w", i, err))
									return
								}
								if err := expectBodies(w, p.ID(), phr.CategoryEmergency, got); err != nil {
									churnUnexpected.set(fmt.Errorf("round %d: %w", i, err))
									return
								}
								churnOK.Add(1)
							}
						}(p)
					}
					// Concurrent racing readers on the churned pair: every
					// attempt must either disclose correct plaintexts or be
					// denied with ErrNoGrant — nothing in between.
					for _, p := range w.Patients {
						readers.Add(1)
						go func(p *phr.Patient) {
							defer readers.Done()
							for {
								select {
								case <-done:
									return
								default:
								}
								got, err := w.Service.ReadCategory(p.ID(), phr.CategoryEmergency, specialist)
								switch {
								case errors.Is(err, phr.ErrNoGrant):
									churnDenied.Add(1)
								case err != nil:
									churnUnexpected.set(fmt.Errorf("racing reader on %s: %w", p.ID(), err))
									return
								default:
									if e := expectBodies(w, p.ID(), phr.CategoryEmergency, got); e != nil {
										churnUnexpected.set(fmt.Errorf("racing reader on %s: %w", p.ID(), e))
										return
									}
									churnOK.Add(1)
								}
							}
						}(p)
					}
					// Steady readers: the KGC2 clinician's grant is never
					// touched by the churn and must never be denied.
					for _, p := range w.Patients {
						readers.Add(1)
						go func(p *phr.Patient) {
							defer readers.Done()
							for {
								select {
								case <-done:
									return
								default:
								}
								got, err := w.Service.ReadCategory(p.ID(), phr.CategoryEmergency, steady)
								if err == nil {
									err = expectBodies(w, p.ID(), phr.CategoryEmergency, got)
								}
								if err != nil {
									steadyFailure.set(fmt.Errorf("steady grant on %s disturbed: %w", p.ID(), err))
									return
								}
							}
						}(p)
					}
					// Writers are the clock: when every flap has run its
					// rounds, stop the readers and drain them.
					writers.Wait()
					close(done)
					readers.Wait()
					return nil
				},
				Invariants: []Invariant{
					{Name: "no-unexpected-outcomes", Check: func() error {
						return churnUnexpected.get()
					}},
					{Name: "steady-grant-undisturbed", Check: func() error {
						return steadyFailure.get()
					}},
					{Name: "churn-exercised-both-outcomes", Check: func() error {
						ok, denied := churnOK.Load(), churnDenied.Load()
						if ok < int64(patients*rounds) || denied < int64(patients*rounds) {
							return fmt.Errorf("ok=%d denied=%d, want >= %d each", ok, denied, patients*rounds)
						}
						return nil
					}},
				},
			},
			{
				Name: "settle",
				Run:  func() error { return nil },
				Invariants: []Invariant{
					{Name: "every-pair-discloses-after-churn", Check: func() error {
						for _, p := range w.Patients {
							for _, req := range []*ibe.PrivateKey{steady, specialist} {
								got, err := w.Service.ReadCategory(p.ID(), phr.CategoryEmergency, req)
								if err != nil {
									return fmt.Errorf("%s for %s: %w", p.ID(), req.ID, err)
								}
								if err := expectBodies(w, p.ID(), phr.CategoryEmergency, got); err != nil {
									return fmt.Errorf("%s for %s: %w", p.ID(), req.ID, err)
								}
							}
						}
						return nil
					}},
					{Name: "audit-ordered-under-concurrency", Check: func() error {
						return auditOrdered(proxy.Audit().Entries())
					}},
					{Name: "audit-views-consistent", Check: func() error {
						log := proxy.Audit()
						byReq := 0
						for _, id := range []string{steady.ID, specialist.ID} {
							entries := log.ByRequester(id)
							for i := 1; i < len(entries); i++ {
								if entries[i].Seq <= entries[i-1].Seq {
									return fmt.Errorf("ByRequester(%s) out of order at %d", id, i)
								}
							}
							byReq += len(entries)
						}
						if byReq != log.Len() {
							return fmt.Errorf("ByRequester partitions cover %d of %d entries", byReq, log.Len())
						}
						// At least every writer-forced denial is on record.
						if n := len(log.Denials()); n < patients*rounds {
							return fmt.Errorf("denials = %d, want >= %d", n, patients*rounds)
						}
						return nil
					}},
				},
			},
		},
	}, nil
}
