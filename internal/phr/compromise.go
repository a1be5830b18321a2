package phr

import (
	"typepre/internal/core"
	"typepre/internal/hybrid"
)

// This file implements the E6 blast-radius experiment: what fraction of
// stored records does an attacker expose by corrupting proxies (and
// colluding with the requesters those proxies serve)?
//
// Under the paper's scheme a corrupted type-t proxy key, even combined with
// the delegatee's key, yields only the type-t "weak" key (§4.3): the blast
// radius is the records of the delegated (patient, category) pairs.
//
// Under a traditional (type-less) PRE deployment — one proxy holding one
// identity-wide rekey per (patient, requester) — the same corruption
// exposes EVERY record of every delegating patient.

// sealedPair keys exposure by patient and sealed wire type (category plus
// rotation epoch): a recovered type key opens exactly one such pair.
type sealedPair struct {
	patient string
	typ     core.Type
}

// ExposureReport summarizes a compromise simulation.
type ExposureReport struct {
	TotalRecords   int
	ExposedRecords int
	// ExposedByCategory counts exposed records per category.
	ExposedByCategory map[Category]int
}

// Fraction returns exposed/total (0 when the store is empty).
func (r *ExposureReport) Fraction() float64 {
	if r.TotalRecords == 0 {
		return 0
	}
	return float64(r.ExposedRecords) / float64(r.TotalRecords)
}

// SimulateTypePREBreach computes the records an attacker can decrypt after
// corrupting the given proxies AND colluding with every requester that has
// a grant on them. Exposure is structural: a record is exposed iff some
// corrupted proxy holds a grant for its (patient, category) pair —
// precisely what the recovered type keys open (Theorem 1; verified
// cryptographically by VerifyTypePREBreach and the tests).
func SimulateTypePREBreach(store Backend, corrupted []*Proxy) *ExposureReport {
	// Keyed by the *sealed* wire type (category + rotation epoch), not the
	// logical category: a rekey for an old epoch opens nothing that has
	// been re-sealed since — rotation shrinks the blast radius.
	exposedPairs := map[sealedPair]bool{}
	for _, p := range corrupted {
		for _, rk := range p.CompromisedGrants() {
			exposedPairs[sealedPair{rk.DelegatorID, rk.Type}] = true
		}
	}
	return exposureFrom(store, func(rec *EncryptedRecord) bool {
		return exposedPairs[sealedPair{rec.PatientID, rec.Sealed.KEM.Type}]
	})
}

// SimulateTraditionalPREBreach computes the exposure of the same corruption
// under a type-less PRE deployment: any grant from a patient exposes ALL of
// that patient's records.
func SimulateTraditionalPREBreach(store Backend, corrupted []*Proxy) *ExposureReport {
	exposedPatients := map[string]bool{}
	for _, p := range corrupted {
		for _, rk := range p.CompromisedGrants() {
			exposedPatients[rk.DelegatorID] = true
		}
	}
	return exposureFrom(store, func(rec *EncryptedRecord) bool {
		return exposedPatients[rec.PatientID]
	})
}

// exposureFrom walks every stored record and tallies the ones the given
// predicate marks as exposed; counts are reported by logical category. A
// backend read failure skips the unreadable patient — the simulation
// reports what the attacker could actually read.
func exposureFrom(store Backend, exposed func(*EncryptedRecord) bool) *ExposureReport {
	rep := &ExposureReport{ExposedByCategory: map[Category]int{}}
	for _, patient := range store.Patients() {
		recs, err := store.ListByPatient(patient)
		if err != nil {
			continue
		}
		for _, rec := range recs {
			rep.TotalRecords++
			if exposed(rec) {
				rep.ExposedRecords++
				rep.ExposedByCategory[rec.Category]++
			}
		}
	}
	return rep
}

// VerifyTypePREBreach cryptographically validates the structural simulation
// on a workload: for every record the simulation marks exposed, the
// attacker (holding the corrupted proxies' rekeys and the colluding
// requesters' keys) actually recovers a working type key and could decrypt;
// for a sample of non-exposed records, recovered keys do NOT open them.
// Returns (exposedVerified, isolatedVerified).
func VerifyTypePREBreach(w *Workload, corrupted []*Proxy) (bool, bool) {
	// Recover all type keys available to the attacker, keyed by the sealed
	// wire type they open (category at a specific rotation epoch).
	typeKeys := map[sealedPair]*core.TypeKey{}
	for _, p := range corrupted {
		for _, rk := range p.CompromisedGrants() {
			requesterKey, ok := w.Requesters[rk.DelegateeID]
			if !ok {
				continue
			}
			tk, err := core.RecoverTypeKey(rk, requesterKey)
			if err != nil {
				return false, false
			}
			typeKeys[sealedPair{rk.DelegatorID, rk.Type}] = tk
		}
	}

	exposedOK := true
	isolatedOK := true
	for _, rec := range w.Records {
		key := sealedPair{rec.PatientID, rec.Sealed.KEM.Type}
		tk, exposed := typeKeys[key]
		if exposed {
			// The attacker opens the KEM with the type key and unseals.
			if !attackerCanOpen(tk, rec, w.Bodies[rec.ID]) {
				exposedOK = false
			}
			continue
		}
		// Try every recovered key of the same patient: none may work.
		for pc, wrongTk := range typeKeys {
			if pc.patient != rec.PatientID {
				continue
			}
			if attackerCanOpen(wrongTk, rec, w.Bodies[rec.ID]) {
				isolatedOK = false
			}
		}
	}
	return exposedOK, isolatedOK
}

// attackerCanOpen checks whether a recovered type key opens a sealed
// record: it decrypts the KEM with the type key, derives the DEM key and
// compares the unsealed body.
func attackerCanOpen(tk *core.TypeKey, rec *EncryptedRecord, want []byte) bool {
	k, err := core.DecryptWithTypeKey(tk, rec.Sealed.KEM)
	if err != nil {
		return false
	}
	body, err := hybrid.OpenWithKEMKey(k, rec.Sealed)
	if err != nil {
		return false
	}
	return string(body) == string(want)
}
