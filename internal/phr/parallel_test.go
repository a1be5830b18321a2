package phr

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"typepre/internal/hybrid"
)

// bulkWorkload materializes the shared bulk-disclosure fixture.
func bulkWorkload(t *testing.T, n int) (*Workload, *Proxy, string, string) {
	t.Helper()
	f, err := NewBulkFixture(n)
	if err != nil {
		t.Fatal(err)
	}
	return f.Workload, f.Proxy, f.PatientID, f.RequesterID
}

// discloseAll collects a category stream into a slice.
func discloseAll(p *Proxy, store Backend, patientID string, c Category, requester string) ([]*hybrid.ReCiphertext, error) {
	var out []*hybrid.ReCiphertext
	err := p.DiscloseCategoryStream(store, patientID, c, requester, func(frame []byte, _ bool) error {
		rct, err := decodeFrame(frame)
		out = append(out, rct)
		return err
	})
	return out, err
}

// countingBackend counts the record reads (Get and both List methods)
// that reach the backend beneath a service or proxy.
type countingBackend struct {
	Backend
	reads atomic.Int64
}

func (b *countingBackend) Get(id string) (*EncryptedRecord, error) {
	b.reads.Add(1)
	return b.Backend.Get(id)
}

func (b *countingBackend) ListByPatient(patientID string) ([]*EncryptedRecord, error) {
	b.reads.Add(1)
	return b.Backend.ListByPatient(patientID)
}

func (b *countingBackend) ListByPatientCategory(patientID string, c Category) ([]*EncryptedRecord, error) {
	b.reads.Add(1)
	return b.Backend.ListByPatientCategory(patientID, c)
}

// TestDiscloseCategoryParallelMatchesSerial pins the worker-pool stream to
// serial one-record disclosures: same record order, byte-identical
// plaintexts after delegatee decryption.
func TestDiscloseCategoryParallelMatchesSerial(t *testing.T) {
	w, proxy, patient, requester := bulkWorkload(t, 24)
	key := w.Requesters[requester]

	parallel, err := discloseAll(proxy, w.Service.Store, patient, CategoryEmergency, requester)
	if err != nil {
		t.Fatal(err)
	}
	recs := mustList(t, w.Service.Store, patient, CategoryEmergency)
	if len(recs) != 24 || len(parallel) != 24 {
		t.Fatalf("records=%d parallel=%d, want 24", len(recs), len(parallel))
	}
	for i, rec := range recs {
		serial, err := w.Service.Request(rec.ID, requester)
		if err != nil {
			t.Fatal(err)
		}
		want := w.Bodies[rec.ID]
		gotP, err := hybrid.DecryptReEncrypted(key, parallel[i])
		if err != nil {
			t.Fatalf("parallel item %d: %v", i, err)
		}
		gotS, err := hybrid.DecryptReEncrypted(key, serial)
		if err != nil {
			t.Fatalf("serial item %d: %v", i, err)
		}
		if !bytes.Equal(gotP, want) || !bytes.Equal(gotS, want) {
			t.Fatalf("item %d: plaintext mismatch (order broken?)", i)
		}
	}
}

// TestDiscloseCategoryStreamOrderAndAudit checks ordered emission and the
// per-record granted audit entries of the streaming path.
func TestDiscloseCategoryStreamOrderAndAudit(t *testing.T) {
	w, proxy, patient, requester := bulkWorkload(t, 8)
	key := w.Requesters[requester]
	recs := mustList(t, w.Service.Store, patient, CategoryEmergency)
	before := proxy.Audit().Len()

	i := 0
	err := proxy.DiscloseCategoryStream(w.Service.Store, patient, CategoryEmergency, requester,
		func(frame []byte, _ bool) error {
			rct, err := decodeFrame(frame)
			if err != nil {
				return err
			}
			got, err := hybrid.DecryptReEncrypted(key, rct)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, w.Bodies[recs[i].ID]) {
				t.Fatalf("stream item %d out of order", i)
			}
			i++
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if i != 8 {
		t.Fatalf("stream yielded %d items, want 8", i)
	}
	granted := 0
	for _, e := range proxy.Audit().Entries()[before:] {
		if e.Outcome == OutcomeGranted {
			granted++
		}
	}
	if granted != 8 {
		t.Fatalf("audit logged %d granted entries, want 8", granted)
	}

	// A consumer cancelling the stream is not a proxy error: the records
	// delivered so far stay audited as granted, nothing else is logged.
	before = proxy.Audit().Len()
	stop := errors.New("client went away")
	err = proxy.DiscloseCategoryStream(w.Service.Store, patient, CategoryEmergency, requester,
		func([]byte, bool) error { return stop })
	if !errors.Is(err, stop) {
		t.Fatalf("got %v, want the consumer error", err)
	}
	for _, e := range proxy.Audit().Entries()[before:] {
		if e.Outcome == OutcomeError {
			t.Fatalf("consumer cancel audited as proxy error: %+v", e)
		}
	}
}

// TestDiscloseCategoryParallelNoGrant keeps the denial semantics: error,
// no results, one no-grant audit entry, and no read from the store.
func TestDiscloseCategoryParallelNoGrant(t *testing.T) {
	w, proxy, patient, _ := bulkWorkload(t, 4)
	store := &countingBackend{Backend: w.Service.Store}
	before := proxy.Audit().Len()
	rcts, err := discloseAll(proxy, store, patient, CategoryEmergency, "eve@outside.example")
	if !errors.Is(err, ErrNoGrant) || len(rcts) != 0 {
		t.Fatalf("got %d records and %v, want none and ErrNoGrant", len(rcts), err)
	}
	entries := proxy.Audit().Entries()[before:]
	if len(entries) != 1 || entries[0].Outcome != OutcomeNoGrant {
		t.Fatalf("audit after denial = %+v", entries)
	}
	if n := store.reads.Load(); n != 0 {
		t.Fatalf("denied bulk request read the store %d times, want 0", n)
	}
}

// TestRequestFetchesRecordOnce pins the single-record path to one store
// read per request, granted or denied: the service fetches the record to
// route it and hands that same record to the proxy.
func TestRequestFetchesRecordOnce(t *testing.T) {
	s := newScenario(t)
	store := &countingBackend{Backend: NewStore()}
	svc := NewServiceWith(StandardCategories(), store)
	rec, err := s.alice.AddRecord(store, CategoryEmergency, []byte("bt O−"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Grant(s.alice, s.kgc2.Params(), s.bobKey.ID, CategoryEmergency); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, requester string
		wantErr         error
	}{
		{"granted", s.bobKey.ID, nil},
		{"denied", s.eveKey.ID, ErrNoGrant},
	} {
		before := store.reads.Load()
		if _, err := svc.Request(rec.ID, tc.requester); !errors.Is(err, tc.wantErr) {
			t.Fatalf("%s: got %v, want %v", tc.name, err, tc.wantErr)
		}
		if n := store.reads.Load() - before; n != 1 {
			t.Fatalf("%s: request read the store %d times, want 1", tc.name, n)
		}
	}
}

// TestDiscloseCategoryParallelConcurrentRequesters runs bulk disclosures
// from several goroutines against one proxy — race coverage for the pool,
// the grant table, the store, and the audit log together.
func TestDiscloseCategoryParallelConcurrentRequesters(t *testing.T) {
	w, proxy, patient, requester := bulkWorkload(t, 16)
	key := w.Requesters[requester]
	recs := mustList(t, w.Service.Store, patient, CategoryEmergency)

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rcts, err := discloseAll(proxy, w.Service.Store, patient, CategoryEmergency, requester)
			if err != nil {
				errs <- err
				return
			}
			for i, rct := range rcts {
				got, err := hybrid.DecryptReEncrypted(key, rct)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, w.Bodies[recs[i].ID]) {
					errs <- errors.New("concurrent bulk disclosure: order broken")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
