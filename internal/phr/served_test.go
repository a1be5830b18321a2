package phr

import (
	"slices"

	"typepre/internal/hybrid"
	"typepre/internal/ibe"
)

// The helpers below drive the paths the HTTP handlers serve — the proxy
// entry points and Service.Request — and decrypt on the requester's side,
// so the lifecycle tests exercise what phrserver runs.

// grantAt installs a patient's delegation at the proxy serving c, which is
// what POST /v1/grants does with the rekey Patient.Grant creates.
func grantAt(svc *Service, p *Patient, requesterParams *ibe.Params, requesterID string, c Category) error {
	proxy, err := svc.ProxyFor(c)
	if err != nil {
		return err
	}
	return p.Grant(proxy, requesterParams, requesterID, c, nil)
}

// readRecord discloses one record as GET /v1/records/{id} does and
// decrypts it with the requester's key.
func readRecord(svc *Service, recordID string, requester *ibe.PrivateKey) ([]byte, error) {
	rct, err := svc.Request(recordID, requester.ID)
	if err != nil {
		return nil, err
	}
	return hybrid.DecryptReEncrypted(requester, rct)
}

// readCategory streams every record of (patient, category) through the
// category's proxy as the bulk-disclosure handler does, decrypting each
// frame as it arrives; results keep insertion order.
func readCategory(svc *Service, patientID string, c Category, requester *ibe.PrivateKey) ([][]byte, error) {
	proxy, err := svc.ProxyFor(c)
	if err != nil {
		return nil, err
	}
	var out [][]byte
	err = proxy.DiscloseCategoryStream(svc.Store, patientID, c, requester.ID, func(frame []byte, _ bool) error {
		rct, err := decodeFrame(frame)
		if err != nil {
			return err
		}
		body, err := hybrid.DecryptReEncrypted(requester, rct)
		out = append(out, body)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// breakGlass runs an emergency disclosure through the emergency proxy as
// the break-glass handler does and collects the released containers.
func breakGlass(svc *Service, patientID, requesterID, reason string) ([]*hybrid.ReCiphertext, error) {
	proxy, err := svc.ProxyFor(CategoryEmergency)
	if err != nil {
		return nil, err
	}
	var out []*hybrid.ReCiphertext
	err = proxy.BreakGlass(svc.Store, patientID, CategoryEmergency, requesterID, reason, func(frame []byte, _ bool) error {
		rct, err := decodeFrame(frame)
		out = append(out, rct)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// revoke removes a patient's grant from the proxy, as DELETE /v1/grants
// does.
func revoke(p *Patient, proxy *Proxy, requesterID string, c Category) error {
	return proxy.Revoke(p.ID(), c, requesterID)
}

// readOwn fetches one of the patient's records and decrypts it with the
// patient's own key; each sealed record carries its wire type, so records
// of every rotation epoch open.
func readOwn(p *Patient, store Backend, recordID string) ([]byte, error) {
	rec, err := store.Get(recordID)
	if err != nil {
		return nil, err
	}
	return hybrid.Decrypt(p.Delegator(), rec.Sealed)
}

// grantCount returns the number of grants installed at the proxy.
func grantCount(p *Proxy) int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.grants)
}

// isDenial reports whether an outcome records a refused or failed
// disclosure rather than content leaving the proxy.
func isDenial(o Outcome) bool { return o != OutcomeGranted && o != OutcomeBreakGlass }

// filterAudit returns the log's entries that keep accepts, in order.
func filterAudit(l *AuditLog, keep func(AuditEntry) bool) []AuditEntry {
	var out []AuditEntry
	for _, e := range l.Tail(0) {
		if keep(e) {
			out = append(out, e)
		}
	}
	return out
}

// denials returns the entries recording refused or failed disclosures.
func denials(l *AuditLog) []AuditEntry {
	return filterAudit(l, func(e AuditEntry) bool { return isDenial(e.Outcome) })
}

// byRequester returns one requester's entries, in order.
func byRequester(l *AuditLog, requester string) []AuditEntry {
	return filterAudit(l, func(e AuditEntry) bool { return e.Requester == requester })
}

// byOutcome returns the entries with one outcome, in order.
func byOutcome(l *AuditLog, o Outcome) []AuditEntry {
	return filterAudit(l, func(e AuditEntry) bool { return e.Outcome == o })
}

// categoriesOf returns the sorted distinct categories a patient has
// records in.
func categoriesOf(b Backend, patientID string) ([]Category, error) {
	recs, err := b.ListByPatient(patientID)
	if err != nil {
		return nil, err
	}
	var out []Category
	for _, r := range recs {
		if !slices.Contains(out, r.Category) {
			out = append(out, r.Category)
		}
	}
	slices.Sort(out)
	return out, nil
}
