package phr

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// benchAuditEntry is a typical disclosure entry, sized like the service's.
func benchAuditEntry(i int) AuditEntry {
	return AuditEntry{Proxy: "proxy-emergency", PatientID: "patient-000@phr.example",
		RecordID: fmt.Sprintf("patient-000@phr.example/%06d", i), Category: CategoryEmergency,
		Requester: "requester-000@kgc2.example", Outcome: OutcomeGranted}
}

// BenchmarkAuditTail256 measures the bounded audit read the service
// answers most: GET /v1/audit?limit=256 on a 4096-entry log, through the
// full handler stack into an httptest.ResponseRecorder.
func BenchmarkAuditTail256(b *testing.B) {
	svc := NewService([]Category{CategoryEmergency})
	proxy, err := svc.ProxyFor(CategoryEmergency)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4096; i++ {
		proxy.Audit().Append(benchAuditEntry(i))
	}
	srv := NewServer(svc)
	req := httptest.NewRequest("GET", "/v1/audit?category="+string(CategoryEmergency)+"&limit=256", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

// BenchmarkAuditAppend measures one audited disclosure's log append.
func BenchmarkAuditAppend(b *testing.B) {
	log := NewAuditLog()
	e := benchAuditEntry(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		log.Append(e)
	}
}
