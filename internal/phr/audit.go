package phr

import (
	"encoding/json"
	"sync"
	"time"
)

// Outcome classifies an audited disclosure attempt.
type Outcome string

// Audit outcomes.
const (
	OutcomeGranted Outcome = "granted"
	OutcomeNoGrant Outcome = "no-grant"
	OutcomeError   Outcome = "error"
	// OutcomeStaleGrant marks a request through a grant that predates the
	// category's key rotation: the rekey still sits in the grant table but
	// can no longer transform the re-sealed records.
	OutcomeStaleGrant Outcome = "stale-grant"
	// OutcomeBreakGlass marks an emergency disclosure through the
	// break-glass path. It is a *successful* disclosure — deliberately
	// distinguishable from OutcomeGranted so compliance review can find
	// every emergency access, and never counted as a denial.
	OutcomeBreakGlass Outcome = "break-glass"
)

// IsDenial reports whether the outcome records a refused or failed
// disclosure (as opposed to content leaving the proxy).
func (o Outcome) IsDenial() bool {
	return o != OutcomeGranted && o != OutcomeBreakGlass
}

// AuditEntry records one disclosure attempt at a proxy.
type AuditEntry struct {
	// Seq is the entry's position in the proxy's log, assigned at append
	// time, starting at 1 and strictly increasing: ties in the wall-clock
	// Time cannot obscure the order in which disclosures happened.
	Seq       uint64
	Time      time.Time
	Proxy     string
	PatientID string
	RecordID  string
	Category  Category
	Requester string
	Outcome   Outcome
	// Note carries outcome context; the break-glass path stores its
	// mandatory reason here.
	Note string `json:",omitempty"`
}

// AuditLog is an append-only, concurrency-safe log of disclosure attempts.
// §5 relies on patients choosing proxies "according to trust"; the audit
// log is what makes that trust inspectable.
type AuditLog struct {
	mu      sync.RWMutex
	nextSeq uint64       // phrlint:guardedby mu
	entries []AuditEntry // phrlint:guardedby mu
	// Incremental JSON encode cache: encBuf holds the comma-joined JSON
	// encodings of entries[:encodedN] (the array body, no brackets).
	// Entries are immutable once appended, so the cache only ever extends —
	// serving the audit log costs O(entries appended since the last read)
	// instead of re-marshaling the whole unbounded log per request. The
	// cache roughly doubles the log's memory; an entry is ~200 bytes either
	// way.
	encBuf   []byte // phrlint:guardedby mu
	encodedN int    // phrlint:guardedby mu
}

// NewAuditLog returns an empty log.
func NewAuditLog() *AuditLog { return &AuditLog{} }

// Append adds an entry (stamped with the current time if zero) and assigns
// the next sequence number. The stamp is taken under the same lock as the
// sequence number, so Seq order and Time order can never contradict each
// other — the "strictly ordered per proxy" invariant the drills check.
func (l *AuditLog) Append(e AuditEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	l.nextSeq++
	e.Seq = l.nextSeq
	l.entries = append(l.entries, e)
}

// Len returns the number of entries.
func (l *AuditLog) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.entries)
}

// JSONBody returns the JSON array body (no surrounding brackets) of every
// entry, in append order, extending the incremental encode cache with any
// entries appended since the last call. The returned slice is a snapshot:
// concurrent appends extend the cache past its length but never mutate the
// bytes it covers, so callers may write it out without copying. Byte-for-
// byte, "[" + body + "]" equals json.Marshal of Entries().
func (l *AuditLog) JSONBody() ([]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for ; l.encodedN < len(l.entries); l.encodedN++ {
		b, err := json.Marshal(l.entries[l.encodedN])
		if err != nil {
			return nil, err
		}
		if l.encodedN > 0 {
			l.encBuf = append(l.encBuf, ',')
		}
		l.encBuf = append(l.encBuf, b...)
	}
	// Full-slice expression caps the snapshot so a later append that grows
	// in place cannot be observed through it.
	return l.encBuf[:len(l.encBuf):len(l.encBuf)], nil
}

// Tail returns (a copy of) the last n entries in append order; n <= 0 or
// n >= Len returns everything.
func (l *AuditLog) Tail(n int) []AuditEntry {
	l.mu.RLock()
	defer l.mu.RUnlock()
	start := 0
	if n > 0 && n < len(l.entries) {
		start = len(l.entries) - n
	}
	out := make([]AuditEntry, len(l.entries)-start)
	copy(out, l.entries[start:])
	return out
}

// Entries returns a copy of all entries in append order.
func (l *AuditLog) Entries() []AuditEntry {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]AuditEntry, len(l.entries))
	copy(out, l.entries)
	return out
}

// ByRequester returns the entries for one requester, in order.
func (l *AuditLog) ByRequester(requester string) []AuditEntry {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var out []AuditEntry
	for _, e := range l.entries {
		if e.Requester == requester {
			out = append(out, e)
		}
	}
	return out
}

// Denials returns the entries recording refused or failed disclosures.
// Break-glass accesses are successful disclosures and are not denials;
// find them with ByOutcome(OutcomeBreakGlass).
func (l *AuditLog) Denials() []AuditEntry {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var out []AuditEntry
	for _, e := range l.entries {
		if e.Outcome.IsDenial() {
			out = append(out, e)
		}
	}
	return out
}

// ByOutcome returns the entries with the given outcome, in order.
func (l *AuditLog) ByOutcome(o Outcome) []AuditEntry {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var out []AuditEntry
	for _, e := range l.entries {
		if e.Outcome == o {
			out = append(out, e)
		}
	}
	return out
}
