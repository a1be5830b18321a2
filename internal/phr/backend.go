package phr

import (
	"errors"
	"fmt"
	"time"

	"typepre/internal/hybrid"
	"typepre/internal/wire"
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

// MarshalRecord appends the storage wire form of rec to buf and returns
// the extended slice.
func MarshalRecord(buf []byte, rec *EncryptedRecord) []byte {
	buf = wire.AppendField(buf, rec.ID)
	buf = wire.AppendField(buf, rec.PatientID)
	buf = wire.AppendField(buf, rec.Category)
	buf = wire.AppendUint64(buf, uint64(rec.CreatedAt.UnixNano()))
	return wire.AppendField(buf, rec.Sealed.Marshal())
}

// UnmarshalRecord decodes one record from its storage wire form. The
// whole input must be consumed: trailing bytes are an error.
func UnmarshalRecord(b []byte) (*EncryptedRecord, error) {
	r := wire.NewReader(b)
	id, patient, category, ts, sealedBytes := r.Field(), r.Field(), r.Field(), r.Uint64(), r.Field()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("phr: record: %w", err)
	}
	sealed, err := hybrid.UnmarshalCiphertext(sealedBytes)
	if err != nil {
		return nil, fmt.Errorf("phr: record ciphertext: %w", err)
	}
	return &EncryptedRecord{
		ID:        string(id),
		PatientID: string(patient),
		Category:  Category(category),
		CreatedAt: time.Unix(0, int64(ts)),
		Sealed:    sealed,
	}, nil
}
