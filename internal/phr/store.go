package phr

import (
	"errors"
	"fmt"
	"sync"
)

// Store errors.
var (
	ErrNotFound  = errors.New("phr: record not found")
	ErrDuplicate = errors.New("phr: duplicate record id")
)

// memBackend is the in-memory Backend: a primary index by record ID and
// the shared RecordIndex by patient and by (patient, category), all behind
// one RWMutex. It stands in for the semi-trusted database of §5: it sees
// only sealed bodies and routing metadata. All methods are safe for
// concurrent use.
//
// Stored records are never mutated after insertion (Put/Replace store
// private clones), so the read paths can copy the record pointers under
// the RLock and clone outside it — the lock is held for O(ids), not
// O(bytes cloned).
type memBackend struct {
	mu     sync.RWMutex
	closed bool                        // phrlint:guardedby mu
	byID   map[string]*EncryptedRecord // phrlint:guardedby mu
	index  RecordIndex                 // phrlint:guardedby mu
}

// NewStore returns an empty in-memory backend — the default storage layer
// for tests, examples and single-run tools. For a store that survives
// restarts use internal/phr/diskstore.
func NewStore() Backend { return newMemBackend() }

func newMemBackend() *memBackend {
	return &memBackend{byID: map[string]*EncryptedRecord{}}
}

// Put inserts a record. It fails with ErrDuplicate if the ID exists.
func (s *memBackend) Put(r *EncryptedRecord) error {
	if r == nil || r.ID == "" {
		return fmt.Errorf("phr: invalid record")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("%w: store closed", ErrStorage)
	}
	if _, ok := s.byID[r.ID]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicate, r.ID)
	}
	cp := r.Clone()
	s.byID[cp.ID] = cp
	s.index.Add(cp.ID, cp.PatientID, cp.Category)
	return nil
}

// Replace swaps the sealed body of an existing record in place — the
// store-side primitive of key rotation. The record must exist and keep its
// routing metadata (patient and category): rotation changes what seals a
// record, never where it lives in the indexes.
func (s *memBackend) Replace(r *EncryptedRecord) error {
	if r == nil || r.ID == "" {
		return fmt.Errorf("phr: invalid record")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("%w: store closed", ErrStorage)
	}
	cur, ok := s.byID[r.ID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, r.ID)
	}
	if cur.PatientID != r.PatientID || cur.Category != r.Category {
		return fmt.Errorf("phr: replace of %s cannot change routing metadata", r.ID)
	}
	s.byID[r.ID] = r.Clone()
	return nil
}

// Get fetches a record by ID.
func (s *memBackend) Get(id string) (*EncryptedRecord, error) {
	s.mu.RLock()
	r, ok := s.byID[id]
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return nil, fmt.Errorf("%w: store closed", ErrStorage)
	}
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return r.Clone(), nil
}

// Delete removes a record by ID.
func (s *memBackend) Delete(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("%w: store closed", ErrStorage)
	}
	r, ok := s.byID[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	delete(s.byID, id)
	s.index.Remove(id, r.PatientID, r.Category)
	return nil
}

// Close marks the backend closed; further writes and record reads fail
// with ErrStorage.
// There is nothing to flush — the memory backend is not durable.
func (s *memBackend) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

// collect copies the record pointers for a list of IDs under the RLock.
// The returned pointers are the stored records themselves — immutable by
// the backend's invariant — so the caller clones them lock-free.
//
// phrlint:locked mu — the caller holds (at least) the read lock.
func (s *memBackend) collect(ids []string) []*EncryptedRecord {
	out := make([]*EncryptedRecord, 0, len(ids))
	for _, id := range ids {
		out = append(out, s.byID[id])
	}
	return out
}

// cloneAll turns the pointer snapshot into private copies outside any
// lock: the O(records) cloning work no longer blocks writers.
func cloneAll(recs []*EncryptedRecord) []*EncryptedRecord {
	for i, r := range recs {
		recs[i] = r.Clone()
	}
	return recs
}

// ListByPatient returns all records of a patient in insertion order.
func (s *memBackend) ListByPatient(patientID string) ([]*EncryptedRecord, error) {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, fmt.Errorf("%w: store closed", ErrStorage)
	}
	recs := s.collect(s.index.IDs(patientID))
	s.mu.RUnlock()
	return cloneAll(recs), nil
}

// ListByPatientCategory returns a patient's records of one category in
// insertion order — the secondary-index read path proxies use.
func (s *memBackend) ListByPatientCategory(patientID string, c Category) ([]*EncryptedRecord, error) {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, fmt.Errorf("%w: store closed", ErrStorage)
	}
	recs := s.collect(s.index.IDsIn(patientID, c))
	s.mu.RUnlock()
	return cloneAll(recs), nil
}

// Count returns the total number of records.
func (s *memBackend) Count() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byID)
}

// Patients returns the sorted list of patient IDs with at least one record.
func (s *memBackend) Patients() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.index.Patients()
}

// Categories returns the sorted distinct categories stored for a patient.
func (s *memBackend) Categories(patientID string) []Category {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.index.Categories(patientID)
}
