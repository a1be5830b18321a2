package phr

import (
	"errors"
	"fmt"
	"slices"
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
// (Route, Count, Patients) are served from memory in every
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
	// Route returns a record's patient and category from the index,
	// reading no payload; ok is false when the record is absent.
	Route(id string) (patientID string, c Category, ok bool)
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
// the extended slice. A sealed ciphertext decoded from bytes is written
// as those bytes (hybrid.Ciphertext.AppendTo).
func MarshalRecord(buf []byte, rec *EncryptedRecord) []byte {
	buf = slices.Grow(buf, RecordSize(rec))
	buf = wire.AppendField(buf, rec.ID)
	buf = wire.AppendField(buf, rec.PatientID)
	buf = wire.AppendField(buf, rec.Category)
	buf = wire.AppendUint64(buf, uint64(rec.CreatedAt.UnixNano()))
	buf, at := wire.BeginField(buf)
	buf = rec.Sealed.AppendTo(buf)
	wire.EndField(buf, at)
	return buf
}

// RecordSize returns the length of rec's storage wire form.
func RecordSize(rec *EncryptedRecord) int {
	return 24 + len(rec.ID) + len(rec.PatientID) + len(rec.Category) + rec.Sealed.Size()
}

// splitRecord splits the storage wire form into its fields; sealed is the
// ciphertext container, checked for its framing only.
func splitRecord(b []byte) (id, patient, category []byte, ts uint64, sealed []byte, err error) {
	r := wire.NewReader(b)
	id, patient, category, ts, sealed = r.Field(), r.Field(), r.Field(), r.Uint64(), r.Field()
	if err := r.Done(); err != nil {
		return nil, nil, nil, 0, nil, fmt.Errorf("phr: record: %w", err)
	}
	if err := hybrid.CheckContainer(sealed); err != nil {
		return nil, nil, nil, 0, nil, fmt.Errorf("phr: record ciphertext: %w", err)
	}
	return id, patient, category, ts, sealed, nil
}

// UnmarshalTrustedRecord decodes one record from the storage wire form
// that a store wrote after a checked put and read back from files only
// the server process may write (the disk backend's segments; their CRC
// detects accidental damage, not a writer who recomputes it). The sealed
// ciphertext decodes through hybrid.UnmarshalTrustedCiphertext: structure
// and coordinate ranges, no curve or subgroup work. It aliases b and keeps
// its own bytes of b as its encoding, so b must not be modified
// afterwards. The whole input must be consumed: trailing bytes are an
// error.
func UnmarshalTrustedRecord(b []byte) (*EncryptedRecord, error) {
	id, patient, category, ts, sealedBytes, err := splitRecord(b)
	if err != nil {
		return nil, err
	}
	sealed, err := hybrid.UnmarshalTrustedCiphertext(sealedBytes)
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

// RecordRoute reads a record's ID and routing metadata from its storage
// wire form, checking the framing of the record and of its sealed
// container and decoding no ciphertext: what the disk backend's replay
// needs to rebuild its indexes.
func RecordRoute(b []byte) (id, patientID string, c Category, err error) {
	idb, patient, category, _, _, err := splitRecord(b)
	if err != nil {
		return "", "", "", err
	}
	return string(idb), string(patient), Category(category), nil
}
