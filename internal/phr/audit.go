package phr

import (
	"encoding/json"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"
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

// AuditEntry records one disclosure attempt at a proxy.
type AuditEntry struct {
	// Seq is the entry's position in the proxy's log, assigned at append
	// time, starting at 1 and strictly increasing: ties in the wall-clock
	// Time cannot obscure the order in which disclosures happened.
	Seq uint64
	// Time is the wall-clock stamp Append takes under the log's lock. It
	// never decreases within a log: a clock stepped back repeats the
	// previous stamp instead.
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
//
// The log is stored as its wire form: Append encodes each entry once into
// an append-only arena of comma-joined JSON objects, byte for byte what
// json.Marshal produces, so serving any tail of the log is a slice of the
// arena. The struct accessors decode from it on demand.
type AuditLog struct {
	mu    sync.RWMutex
	now   func() time.Time // the clock Append stamps with
	last  time.Time        // phrlint:guardedby mu
	arena []byte           // phrlint:guardedby mu
	offs  []int            // phrlint:guardedby mu
}

// NewAuditLog returns an empty log.
func NewAuditLog() *AuditLog { return &AuditLog{now: time.Now} }

// Append stamps the entry with the current wall-clock time, assigns it the
// next sequence number and encodes it onto the log; any Time or Seq the
// caller set is overwritten. The stamp is taken under the same lock as the
// sequence number and is clamped to be no earlier than the previous one,
// so Seq order and Time order can never contradict each other — the
// "strictly ordered per proxy" invariant the lifecycle tests check — even
// across a wall-clock step back.
func (l *AuditLog) Append(e AuditEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	// Round(0) drops the monotonic reading: the wire form keeps only the
	// wall clock, so that is the clock the clamp must order.
	e.Time = l.now().Round(0)
	if e.Time.Before(l.last) {
		e.Time = l.last
	}
	l.last = e.Time
	e.Seq = uint64(len(l.offs)) + 1
	if len(l.offs) > 0 {
		l.arena = append(l.arena, ',')
	}
	l.offs = append(l.offs, len(l.arena))
	l.arena = appendAuditEntry(l.arena, &e)
}

// Len returns the number of entries.
func (l *AuditLog) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.offs)
}

// Size returns the number of entries and the byte length of their JSON
// array body (brackets excluded).
func (l *AuditLog) Size() (entries, bytes int) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.offs), len(l.arena)
}

// snapshot returns the arena and the start offsets of the last n entries
// (every entry if n <= 0 or n >= Len). Both are capped slices of
// append-only storage: later appends extend the log past them, or move it,
// but never modify the bytes and offsets they cover, so the caller may use
// them without the lock and without copying.
func (l *AuditLog) snapshot(n int) (arena []byte, offs []int) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	start := 0
	if n > 0 && n < len(l.offs) {
		start = len(l.offs) - n
	}
	return l.arena[:len(l.arena):len(l.arena)], l.offs[start:len(l.offs):len(l.offs)]
}

// TailJSON returns the JSON array body (no surrounding brackets) of the
// last n entries in append order; n <= 0 or n >= Len returns everything.
// "[" + body + "]" equals json.Marshal(Tail(n)) byte for byte. The body is
// a zero-copy slice of the log: concurrent appends never modify it, so
// callers may write it out as is.
func (l *AuditLog) TailJSON(n int) []byte {
	arena, offs := l.snapshot(n)
	if len(offs) == 0 {
		return nil
	}
	return arena[offs[0]:]
}

// Tail returns the last n entries in append order, decoded from the log;
// n <= 0 or n >= Len returns everything.
func (l *AuditLog) Tail(n int) []AuditEntry {
	arena, offs := l.snapshot(n)
	out := make([]AuditEntry, len(offs))
	for i, start := range offs {
		end := len(arena)
		if i+1 < len(offs) {
			end = offs[i+1] - 1 // the joining comma
		}
		if err := json.Unmarshal(arena[start:end], &out[i]); err != nil {
			// Only appendAuditEntry writes the arena, and FuzzAuditEntryJSON
			// pins it to json.Marshal.
			panic("phr: undecodable audit entry: " + err.Error())
		}
	}
	return out
}

// appendAuditEntry appends the JSON encoding of e to b: byte for byte what
// json.Marshal(e) returns, for every Time that MarshalJSON accepts (years
// 0 to 9999, zone offsets under 24 hours; Append only stamps such times).
func appendAuditEntry(b []byte, e *AuditEntry) []byte {
	b = append(b, `{"Seq":`...)
	b = strconv.AppendUint(b, e.Seq, 10)
	b = append(b, `,"Time":"`...)
	b = e.Time.AppendFormat(b, time.RFC3339Nano)
	b = append(b, `","Proxy":`...)
	b = appendJSONString(b, e.Proxy)
	b = append(b, `,"PatientID":`...)
	b = appendJSONString(b, e.PatientID)
	b = append(b, `,"RecordID":`...)
	b = appendJSONString(b, e.RecordID)
	b = append(b, `,"Category":`...)
	b = appendJSONString(b, string(e.Category))
	b = append(b, `,"Requester":`...)
	b = appendJSONString(b, e.Requester)
	b = append(b, `,"Outcome":`...)
	b = appendJSONString(b, string(e.Outcome))
	if e.Note != "" {
		b = append(b, `,"Note":`...)
		b = appendJSONString(b, e.Note)
	}
	return append(b, '}')
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string the way encoding/json does
// with HTML escaping on: '"', '\\' and control bytes escaped (\b \f \n \r
// \t by name, the rest as \u00XX), '<' '>' '&' as \u003c \u003e \u0026,
// U+2028 and U+2029 as \u2028 and \u2029, and each byte of
// invalid UTF-8 as \ufffd.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
