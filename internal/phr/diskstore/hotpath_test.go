package diskstore

import (
	"fmt"
	"testing"
	"time"

	"typepre/internal/core"
	"typepre/internal/hybrid"
	"typepre/internal/ibe"
	"typepre/internal/phr"
)

// discloseFixture is a disk store holding one 1 KiB sealed record, put as
// the HTTP handler puts it (decoded from its upload bytes), and a proxy
// with a grant on it whose c2′ cache is warm.
type discloseFixture struct {
	store     *Store
	proxy     *phr.Proxy
	sealed    *hybrid.Ciphertext // the decoded upload
	patient   string
	requester string
}

func newDiscloseFixture(tb testing.TB) *discloseFixture {
	tb.Helper()
	kgc1, err := ibe.Setup("diskstore-bench-kgc1", nil)
	if err != nil {
		tb.Fatal(err)
	}
	kgc2, err := ibe.Setup("diskstore-bench-kgc2", nil)
	if err != nil {
		tb.Fatal(err)
	}
	const patient, requester = "alice@phr.example", "dr-bob@clinic.example"
	alice := core.NewDelegator(kgc1.Extract(patient))
	ct, err := hybrid.Encrypt(alice, make([]byte, 1024), core.Type(phr.CategoryEmergency), nil)
	if err != nil {
		tb.Fatal(err)
	}
	sealed, err := hybrid.UnmarshalCiphertext(ct.Marshal())
	if err != nil {
		tb.Fatal(err)
	}
	rk, err := alice.Delegate(kgc2.Params(), requester, core.Type(phr.CategoryEmergency), nil)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := Open(tb.TempDir(), Options{Fsync: FsyncInterval})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	rec := &phr.EncryptedRecord{ID: "alice/rec-000001", PatientID: patient, Category: phr.CategoryEmergency,
		CreatedAt: time.Unix(0, 1), Sealed: sealed}
	if err := s.Put(rec); err != nil {
		tb.Fatal(err)
	}
	proxy := phr.NewProxy("proxy-emergency")
	if err := proxy.Install(rk); err != nil {
		tb.Fatal(err)
	}
	f := &discloseFixture{store: s, proxy: proxy, sealed: sealed, patient: patient, requester: requester}
	if err := f.disclose(); err != nil { // the miss that warms the cache
		tb.Fatal(err)
	}
	return f
}

// disclose streams the patient's emergency category, one record, toward
// the requester, discarding the frame.
func (f *discloseFixture) disclose() error {
	return f.proxy.DiscloseCategoryStream(f.store, f.patient, phr.CategoryEmergency, f.requester,
		func([]byte, bool) error { return nil })
}

// BenchmarkDiskPut measures Store.Put of a decoded 1 KiB upload with
// interval fsync, the disk-ingest configuration: the store's encode, frame
// and write, without the HTTP layer or the upload's validation.
func BenchmarkDiskPut(b *testing.B) {
	f := newDiscloseFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		rec := &phr.EncryptedRecord{ID: fmt.Sprintf("bench/%09d", i), PatientID: f.patient,
			Category: phr.CategoryMedication, CreatedAt: time.Unix(0, 1), Sealed: f.sealed}
		if err := f.store.Put(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiskDiscloseWarm measures one warm disclosure of a record on
// disk through the proxy: the store's read and decode, the grant check,
// the cached re-encryption into a frame, and the audit entry.
func BenchmarkDiskDiscloseWarm(b *testing.B) {
	f := newDiscloseFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if err := f.disclose(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestHotPathAllocations puts ceilings on the allocations of a put and of
// a warm disclosure. A put builds its frame in one buffer, with the
// decoded upload's bytes copied in as they are; a warm disclosure
// allocates for the read, the record's decode, the stream's bookkeeping
// and the audit entry, and nothing per byte of payload.
func TestHotPathAllocations(t *testing.T) {
	f := newDiscloseFixture(t)
	const runs = 50
	recs := make([]*phr.EncryptedRecord, runs+1)
	for i := range recs {
		recs[i] = &phr.EncryptedRecord{ID: fmt.Sprintf("allocs/%03d", i), PatientID: f.patient,
			Category: phr.CategoryMedication, CreatedAt: time.Unix(0, 1), Sealed: f.sealed}
	}
	next := 0
	put := testing.AllocsPerRun(runs, func() {
		if err := f.store.Put(recs[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	disclose := testing.AllocsPerRun(runs, func() {
		if err := f.disclose(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Put: %.0f allocs; warm disclose: %.0f allocs", put, disclose)
	if put > 1 {
		t.Errorf("Put allocates %.0f times, want at most 1", put)
	}
	if disclose > 15 {
		t.Errorf("a warm disclosure allocates %.0f times, want at most 15", disclose)
	}
}
