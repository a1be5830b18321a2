package phr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"typepre/internal/hybrid"
)

// ErrStorage marks a backend failure below the record model: an I/O error,
// a corrupt frame, a store already closed. HTTP maps it to 500 — the
// request was well-formed, the storage layer failed it.
var ErrStorage = errors.New("phr: storage failure")

// Backend is the pluggable storage layer beneath the PHR service: the
// semi-trusted database of §5 that holds sealed records and routing
// metadata and nothing else. Two implementations ship with the package:
// the in-memory backend (NewStore, the default, used by tests and
// single-run tools) and the crash-safe on-disk backend in
// internal/phr/diskstore.
//
// Methods that carry record payloads (Put, Replace, Get, Delete and the
// two List methods) return errors: a durable backend reads sealed bodies
// from disk and must be able to report failure. The index-only queries
// (Count, Patients, Categories) are served from memory in every
// implementation and cannot fail.
//
// All methods must be safe for concurrent use. Returned records are
// private copies: callers may mutate them freely, and implementations
// must never mutate a record after it has been stored (the memory
// backend's lock-free read path depends on stored records being
// immutable).
type Backend interface {
	// Put inserts a record; ErrDuplicate if the ID exists.
	Put(r *EncryptedRecord) error
	// Replace swaps the sealed body of an existing record in place — the
	// store-side primitive of key rotation. ErrNotFound when absent; the
	// routing metadata (patient, category) must not change.
	Replace(r *EncryptedRecord) error
	// Get fetches a record by ID; ErrNotFound when absent.
	Get(id string) (*EncryptedRecord, error)
	// Delete removes a record by ID; ErrNotFound when absent.
	Delete(id string) error
	// ListByPatient returns all records of a patient in insertion order.
	ListByPatient(patientID string) ([]*EncryptedRecord, error)
	// ListByPatientCategory returns a patient's records of one category in
	// insertion order — the secondary-index read path proxies use.
	ListByPatientCategory(patientID string, c Category) ([]*EncryptedRecord, error)
	// Count returns the total number of records.
	Count() int
	// Patients returns the sorted patient IDs with at least one record.
	Patients() []string
	// Close flushes and releases the backend. Every acknowledged write
	// must be durable (per the backend's sync policy) when Close returns;
	// using the backend afterwards returns ErrStorage.
	Close() error
}

// ---------------------------------------------------------------------------
// Record wire form
// ---------------------------------------------------------------------------

// The storage wire form of one record, the body of the disk backend's
// put and replace log entries:
//
//	u32 len(id)       | id
//	u32 len(patient)  | patient
//	u32 len(category) | category
//	u64 createdAt (UnixNano, big-endian)
//	u32 len(sealed)   | sealed (hybrid.Ciphertext.Marshal)
//
// All integers big-endian. The encoding is deterministic for a given
// record.

// maxRecordFieldBytes bounds any single length-prefixed field during
// decoding, rejecting absurd prefixes before allocation.
const maxRecordFieldBytes = 1 << 30

func appendField(buf, field []byte) []byte {
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(field)))
	buf = append(buf, lenBuf[:]...)
	return append(buf, field...)
}

func takeField(b []byte) (field, rest []byte, err error) {
	if len(b) < 4 {
		return nil, nil, errors.New("truncated field length")
	}
	n := binary.BigEndian.Uint32(b)
	b = b[4:]
	if n > maxRecordFieldBytes || uint64(n) > uint64(len(b)) {
		return nil, nil, fmt.Errorf("field of %d bytes exceeds remaining %d", n, len(b))
	}
	return b[:n], b[n:], nil
}

// MarshalRecord appends the storage wire form of rec to buf and returns
// the extended slice.
func MarshalRecord(buf []byte, rec *EncryptedRecord) []byte {
	buf = appendField(buf, []byte(rec.ID))
	buf = appendField(buf, []byte(rec.PatientID))
	buf = appendField(buf, []byte(rec.Category))
	var tsBuf [8]byte
	binary.BigEndian.PutUint64(tsBuf[:], uint64(rec.CreatedAt.UnixNano()))
	buf = append(buf, tsBuf[:]...)
	return appendField(buf, rec.Sealed.Marshal())
}

// UnmarshalRecord decodes one record from its storage wire form. The
// whole input must be consumed: trailing bytes are an error.
func UnmarshalRecord(b []byte) (*EncryptedRecord, error) {
	id, b, err := takeField(b)
	if err != nil {
		return nil, fmt.Errorf("phr: record id: %w", err)
	}
	patient, b, err := takeField(b)
	if err != nil {
		return nil, fmt.Errorf("phr: record patient: %w", err)
	}
	category, b, err := takeField(b)
	if err != nil {
		return nil, fmt.Errorf("phr: record category: %w", err)
	}
	if len(b) < 8 {
		return nil, errors.New("phr: record timestamp truncated")
	}
	ts := int64(binary.BigEndian.Uint64(b))
	b = b[8:]
	sealedBytes, b, err := takeField(b)
	if err != nil {
		return nil, fmt.Errorf("phr: record body: %w", err)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("phr: %d trailing bytes after record", len(b))
	}
	sealed, err := hybrid.UnmarshalCiphertext(sealedBytes)
	if err != nil {
		return nil, fmt.Errorf("phr: record ciphertext: %w", err)
	}
	return &EncryptedRecord{
		ID:        string(id),
		PatientID: string(patient),
		Category:  Category(category),
		CreatedAt: time.Unix(0, ts),
		Sealed:    sealed,
	}, nil
}
