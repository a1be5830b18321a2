package phr

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// benchPopulate fills a memBackend with one patient holding n sealed
// records, reusing a single sealed container (the store treats it as
// opaque bytes, so one real ciphertext is representative).
func benchPopulate(b *testing.B, n int) *memBackend {
	b.Helper()
	w, err := GenerateWorkload(WorkloadConfig{
		Seed: 1, Patients: 1, Requesters: 1,
		Categories:        []Category{CategoryEmergency},
		RecordsPerPatient: 1, BodySize: 256, GrantsPerPatient: 0,
	})
	if err != nil {
		b.Fatal(err)
	}
	sealed := w.Records[0].Sealed
	s := newMemBackend()
	for i := 0; i < n; i++ {
		rec := &EncryptedRecord{
			ID:        fmt.Sprintf("bench/%06d", i),
			PatientID: "patient-000@phr.example",
			Category:  CategoryEmergency,
			CreatedAt: time.Unix(0, int64(i)),
			Sealed:    sealed,
		}
		if err := s.Put(rec); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// BenchmarkListByPatient512 measures the bulk-disclosure read path at the
// 512-record patient size used by the service benchmarks, from parallel
// readers: the pointer snapshot is taken under the RLock and the records
// are cloned outside it, so clone work does not serialize readers.
func BenchmarkListByPatient512(b *testing.B) {
	const records = 512
	s := benchPopulate(b, records)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if recs, err := s.ListByPatient("patient-000@phr.example"); err != nil || len(recs) != records {
				b.Fatalf("listed %d records (%v), want %d", len(recs), err, records)
			}
		}
	})
}

// BenchmarkPutDuringBulkReads512 measures writer latency while readers
// bulk-list a 512-record patient. The read path holds the RLock only for
// the pointer snapshot, so writers slip in between clones instead of
// waiting for every in-flight clone to drain.
func BenchmarkPutDuringBulkReads512(b *testing.B) {
	const records = 512
	s := benchPopulate(b, records)
	sealed := mustGet(b, s, "bench/000000").Sealed
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if recs, _ := s.ListByPatient("patient-000@phr.example"); len(recs) != records {
					return
				}
			}
		}()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := &EncryptedRecord{
			ID:        fmt.Sprintf("writer/%d", i),
			PatientID: "patient-writer@phr.example",
			Category:  CategoryEmergency,
			Sealed:    sealed,
		}
		if err := s.Put(rec); err != nil {
			b.Fatal(err)
		}
		if err := s.Delete(rec.ID); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
}

func mustGet(b *testing.B, s *memBackend, id string) *EncryptedRecord {
	b.Helper()
	rec, err := s.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	return rec
}
