package phr

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"typepre/internal/hybrid"
	"typepre/internal/ibe"
)

// httpScenario wires the §5 cast to a live httptest server.
type httpScenario struct {
	*scenario
	ts     *httptest.Server
	client *Client
}

func newHTTPScenario(t *testing.T) *httpScenario {
	t.Helper()
	s := newScenario(t)
	ts := httptest.NewServer(NewServer(s.svc))
	t.Cleanup(ts.Close)
	return &httpScenario{scenario: s, ts: ts, client: NewClient(ts.URL)}
}

// sealRecord builds an EncryptedRecord locally (patient side) without
// touching the store, for upload via the API.
func (h *httpScenario) sealRecord(t *testing.T, id string, c Category, body []byte) *EncryptedRecord {
	t.Helper()
	sealed, err := hybrid.Encrypt(h.alice.Delegator(), body, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &EncryptedRecord{ID: id, PatientID: h.alice.ID(), Category: c, Sealed: sealed}
}

func TestHTTPUploadDiscloseFlow(t *testing.T) {
	h := newHTTPScenario(t)
	body := []byte("blood type O−")
	rec := h.sealRecord(t, "alice/r1", CategoryEmergency, body)

	if err := h.client.PutRecord(rec); err != nil {
		t.Fatal(err)
	}
	// Grant Bob via the API.
	rk, err := h.alice.Delegator().Delegate(h.kgc2.Params(), "dr-bob@clinic.example", CategoryEmergency, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.client.InstallGrant(rk); err != nil {
		t.Fatal(err)
	}
	// Disclose and decrypt client-side.
	rct, err := h.client.Disclose("alice/r1", "dr-bob@clinic.example")
	if err != nil {
		t.Fatal(err)
	}
	got, err := hybrid.DecryptReEncrypted(h.bobKey, rct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, body) {
		t.Fatal("HTTP disclosure round trip failed")
	}
}

func TestHTTPForbiddenWithoutGrant(t *testing.T) {
	h := newHTTPScenario(t)
	rec := h.sealRecord(t, "alice/r1", CategoryEmergency, []byte("x"))
	if err := h.client.PutRecord(rec); err != nil {
		t.Fatal(err)
	}
	_, err := h.client.Disclose("alice/r1", "eve@outside.example")
	if err == nil || !strings.Contains(err.Error(), "403") {
		t.Fatalf("want 403, got %v", err)
	}
}

func TestHTTPNotFound(t *testing.T) {
	h := newHTTPScenario(t)
	_, err := h.client.Disclose("nope", "dr-bob@clinic.example")
	if err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("want 404, got %v", err)
	}
}

func TestHTTPDuplicateUploadConflict(t *testing.T) {
	h := newHTTPScenario(t)
	rec := h.sealRecord(t, "alice/r1", CategoryEmergency, []byte("x"))
	if err := h.client.PutRecord(rec); err != nil {
		t.Fatal(err)
	}
	err := h.client.PutRecord(rec)
	if err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("want 409, got %v", err)
	}
}

func TestHTTPCategoryMismatchRejected(t *testing.T) {
	h := newHTTPScenario(t)
	rec := h.sealRecord(t, "alice/r1", CategoryEmergency, []byte("x"))
	rec.Category = CategoryMedication // header disagrees with sealed type
	err := h.client.PutRecord(rec)
	if err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("want 400, got %v", err)
	}
}

func TestHTTPBulkDisclosure(t *testing.T) {
	h := newHTTPScenario(t)
	want := [][]byte{[]byte("a"), []byte("bb"), []byte("ccc")}
	for i, b := range want {
		rec := h.sealRecord(t, "alice/r"+string(rune('1'+i)), CategoryEmergency, b)
		if err := h.client.PutRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	rk, _ := h.alice.Delegator().Delegate(h.kgc2.Params(), "dr-bob@clinic.example", CategoryEmergency, nil)
	if err := h.client.InstallGrant(rk); err != nil {
		t.Fatal(err)
	}
	rcts, err := h.client.DiscloseCategory(h.alice.ID(), CategoryEmergency, "dr-bob@clinic.example")
	if err != nil {
		t.Fatal(err)
	}
	if len(rcts) != len(want) {
		t.Fatalf("bulk returned %d, want %d", len(rcts), len(want))
	}
	for i, rct := range rcts {
		got, err := hybrid.DecryptReEncrypted(h.bobKey, rct)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("bulk item %d mismatch", i)
		}
	}
}

func TestHTTPRevocation(t *testing.T) {
	h := newHTTPScenario(t)
	rec := h.sealRecord(t, "alice/r1", CategoryEmergency, []byte("x"))
	if err := h.client.PutRecord(rec); err != nil {
		t.Fatal(err)
	}
	rk, _ := h.alice.Delegator().Delegate(h.kgc2.Params(), "dr-bob@clinic.example", CategoryEmergency, nil)
	if err := h.client.InstallGrant(rk); err != nil {
		t.Fatal(err)
	}
	if _, err := h.client.Disclose("alice/r1", "dr-bob@clinic.example"); err != nil {
		t.Fatal(err)
	}
	if err := h.client.RevokeGrant(h.alice.ID(), CategoryEmergency, "dr-bob@clinic.example"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.client.Disclose("alice/r1", "dr-bob@clinic.example"); err == nil {
		t.Fatal("disclosure succeeded after revocation")
	}
	// Double revoke → 403.
	if err := h.client.RevokeGrant(h.alice.ID(), CategoryEmergency, "dr-bob@clinic.example"); err == nil {
		t.Fatal("double revoke succeeded")
	}
}

func TestHTTPAudit(t *testing.T) {
	h := newHTTPScenario(t)
	rec := h.sealRecord(t, "alice/r1", CategoryEmergency, []byte("x"))
	if err := h.client.PutRecord(rec); err != nil {
		t.Fatal(err)
	}
	h.client.Disclose("alice/r1", "eve@outside.example") // denied, audited
	entries, err := h.client.Audit(CategoryEmergency)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Outcome != OutcomeNoGrant {
		t.Fatalf("audit = %+v", entries)
	}
}

// TestHTTPHostileIdentifiersRoundTrip uploads, bulk-discloses, singly
// discloses and revokes with identifiers full of URL metacharacters —
// '/', '&', '#', '+', '?', spaces, non-ASCII — and expects every call to
// address exactly the intended resource.
func TestHTTPHostileIdentifiersRoundTrip(t *testing.T) {
	kgc1, err := ibe.Setup("hostile-kgc1", nil)
	if err != nil {
		t.Fatal(err)
	}
	kgc2, err := ibe.Setup("hostile-kgc2", nil)
	if err != nil {
		t.Fatal(err)
	}
	hostileCat := Category("emer/gency +extra&more")
	hostileID := "week/2, réf #9&x+y z?"
	hostilePatient := "pat ient/№1&x+y@phr"
	hostileReq := "dr bob/?&#+@clinic"

	svc := NewService([]Category{hostileCat}, NewStore())
	ts := httptest.NewServer(NewServer(svc))
	t.Cleanup(ts.Close)
	client := NewClient(ts.URL)

	alice := NewPatient(kgc1, hostilePatient)
	bobKey := kgc2.Extract(hostileReq)
	body := []byte("hostile-id record body")
	sealed, err := hybrid.Encrypt(alice.Delegator(), body, hostileCat, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := &EncryptedRecord{ID: hostileID, PatientID: hostilePatient, Category: hostileCat, Sealed: sealed}
	if err := client.PutRecord(rec); err != nil {
		t.Fatal(err)
	}
	rk, err := alice.Delegator().Delegate(kgc2.Params(), hostileReq, hostileCat, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.InstallGrant(rk); err != nil {
		t.Fatal(err)
	}

	rct, err := client.Disclose(hostileID, hostileReq)
	if err != nil {
		t.Fatal(err)
	}
	got, err := hybrid.DecryptReEncrypted(bobKey, rct)
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("hostile single disclosure failed: %v", err)
	}

	rcts, err := client.DiscloseCategory(hostilePatient, hostileCat, hostileReq)
	if err != nil {
		t.Fatal(err)
	}
	if len(rcts) != 1 {
		t.Fatalf("hostile bulk disclosure returned %d records, want 1", len(rcts))
	}
	if got, err := hybrid.DecryptReEncrypted(bobKey, rcts[0]); err != nil || !bytes.Equal(got, body) {
		t.Fatalf("hostile bulk decryption failed: %v", err)
	}

	if err := client.RevokeGrant(hostilePatient, hostileCat, hostileReq); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Disclose(hostileID, hostileReq); err == nil || !strings.Contains(err.Error(), "403") {
		t.Fatalf("want 403 after hostile revoke, got %v", err)
	}
	entries, err := client.Audit(hostileCat)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 || entries[len(entries)-1].Outcome != OutcomeNoGrant {
		t.Fatalf("hostile audit fetch = %+v", entries)
	}
}

// TestHTTPOversizedBodies pins the 413 contract: oversized uploads are
// rejected loudly, never truncated into a confusing decode error.
func TestHTTPOversizedBodies(t *testing.T) {
	h := newHTTPScenario(t)

	req, err := http.NewRequest("POST", h.ts.URL+"/v1/records",
		bytes.NewReader(make([]byte, MaxRecordBytes+1)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(HeaderRecordID, "big")
	req.Header.Set(HeaderRecordPatient, "alice")
	req.Header.Set(HeaderRecordCategory, string(CategoryEmergency))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("record upload: want 413, got %d", resp.StatusCode)
	}

	// Exactly at the limit is not 413 (it fails later as a decode 400).
	req, _ = http.NewRequest("POST", h.ts.URL+"/v1/records", bytes.NewReader(make([]byte, MaxRecordBytes)))
	req.Header.Set(HeaderRecordID, "big")
	req.Header.Set(HeaderRecordPatient, "alice")
	req.Header.Set(HeaderRecordCategory, string(CategoryEmergency))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("at-limit garbage upload: want 400, got %d", resp.StatusCode)
	}

	resp, err = http.Post(h.ts.URL+"/v1/grants", "application/octet-stream",
		bytes.NewReader(make([]byte, MaxGrantBytes+1)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("grant upload: want 413, got %d", resp.StatusCode)
	}
}

// TestHTTPBulkErrorPaths covers the promised statuses of the streaming
// bulk endpoint before any frame is written.
func TestHTTPBulkErrorPaths(t *testing.T) {
	h := newHTTPScenario(t)
	// Missing requester.
	resp, err := http.Get(h.ts.URL + "/v1/patients/alice/categories/emergency")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing requester: want 400, got %d", resp.StatusCode)
	}
	// No proxy for the category.
	if _, err := h.client.DiscloseCategory("alice", "nope", "dr-bob@clinic.example"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown category: want 404, got %v", err)
	}
	// No grant.
	if _, err := h.client.DiscloseCategory(h.alice.ID(), CategoryEmergency, "eve@outside.example"); err == nil || !strings.Contains(err.Error(), "403") {
		t.Fatalf("no grant: want 403, got %v", err)
	}
	// Missing revoke parameters.
	req, _ := http.NewRequest("DELETE", h.ts.URL+"/v1/grants?patient=alice", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("partial revoke params: want 400, got %d", resp.StatusCode)
	}
}

// TestHTTPBulkStreamClientCancel checks the incremental decoder: ordered
// delivery, and a consumer error stopping the stream early.
func TestHTTPBulkStreamClientCancel(t *testing.T) {
	h := newHTTPScenario(t)
	want := [][]byte{[]byte("one"), []byte("two"), []byte("three"), []byte("four")}
	for i, b := range want {
		rec := h.sealRecord(t, "alice/s"+string(rune('1'+i)), CategoryEmergency, b)
		if err := h.client.PutRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	rk, _ := h.alice.Delegator().Delegate(h.kgc2.Params(), "dr-bob@clinic.example", CategoryEmergency, nil)
	if err := h.client.InstallGrant(rk); err != nil {
		t.Fatal(err)
	}

	i := 0
	err := h.client.DiscloseCategoryStream(h.alice.ID(), CategoryEmergency, "dr-bob@clinic.example",
		func(rct *hybrid.ReCiphertext) error {
			got, err := hybrid.DecryptReEncrypted(h.bobKey, rct)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, want[i]) {
				t.Fatalf("stream item %d out of order", i)
			}
			i++
			return nil
		})
	if err != nil || i != len(want) {
		t.Fatalf("full stream: err=%v items=%d", err, i)
	}

	stop := errors.New("enough")
	i = 0
	err = h.client.DiscloseCategoryStream(h.alice.ID(), CategoryEmergency, "dr-bob@clinic.example",
		func(*hybrid.ReCiphertext) error {
			i++
			if i == 2 {
				return stop
			}
			return nil
		})
	if !errors.Is(err, stop) || i != 2 {
		t.Fatalf("cancelled stream: err=%v items=%d", err, i)
	}
}

// TestHTTPAuditContentType pins the audit response shape: JSON content
// type and a valid (possibly empty) array.
func TestHTTPAuditContentType(t *testing.T) {
	h := newHTTPScenario(t)
	resp, err := http.Get(h.ts.URL + "/v1/audit?category=" + string(CategoryEmergency))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("want 200, got %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var entries []AuditEntry
	if err := json.NewDecoder(resp.Body).Decode(&entries); err != nil {
		t.Fatalf("audit body is not valid JSON: %v", err)
	}
	if len(entries) != 0 {
		t.Fatalf("fresh audit log = %+v", entries)
	}
}

// TestHTTPMetricsAuditSize checks the per-proxy audit sizes /v1/metrics
// reports: one row per proxy, entries equal to the log's Len, and bytes
// equal to the unlimited /v1/audit body without its two brackets.
func TestHTTPMetricsAuditSize(t *testing.T) {
	h := newHTTPScenario(t)
	rec := h.sealRecord(t, "alice/r1", CategoryEmergency, []byte("x"))
	if err := h.client.PutRecord(rec); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		h.client.Disclose("alice/r1", "eve@outside.example") // denied, audited
	}
	m, err := h.client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Audit) != len(h.svc.Proxies()) {
		t.Fatalf("metrics size %d audit logs, want %d", len(m.Audit), len(h.svc.Proxies()))
	}
	for _, st := range m.Audit {
		proxy, err := h.svc.ProxyFor(st.Category)
		if err != nil {
			t.Fatal(err)
		}
		if st.Proxy != proxy.Name() || st.Entries != proxy.Audit().Len() {
			t.Fatalf("%s: metrics %+v, proxy %s with %d entries", st.Category, st, proxy.Name(), proxy.Audit().Len())
		}
		resp, err := http.Get(h.ts.URL + "/v1/audit?category=" + string(st.Category))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.Bytes != len(body)-2 || resp.ContentLength != int64(len(body)) {
			t.Fatalf("%s: bytes = %d, Content-Length = %d, body = %d bytes",
				st.Category, st.Bytes, resp.ContentLength, len(body))
		}
		if st.Category == CategoryEmergency && st.Entries != 3 {
			t.Fatalf("emergency audit entries = %d, want 3", st.Entries)
		}
	}
}

// TestHTTPMetricsCacheCounts checks the c2′ cache counters that
// /v1/metrics serves per proxy: a first disclosure of a record counts a
// miss, a repeat a hit, on the single-record and the stream path alike.
func TestHTTPMetricsCacheCounts(t *testing.T) {
	h := newHTTPScenario(t)
	if err := h.client.PutRecord(h.sealRecord(t, "alice/r1", CategoryEmergency, []byte("x"))); err != nil {
		t.Fatal(err)
	}
	rk, err := h.alice.Delegator().Delegate(h.kgc2.Params(), "dr-bob@clinic.example", CategoryEmergency, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.client.InstallGrant(rk); err != nil {
		t.Fatal(err)
	}
	counts := func() (hits, misses uint64) {
		t.Helper()
		m, err := h.client.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Cache) != len(h.svc.Proxies()) {
			t.Fatalf("metrics count %d caches, want %d", len(m.Cache), len(h.svc.Proxies()))
		}
		for _, st := range m.Cache {
			if st.Evictions != 0 || st.Category != CategoryEmergency && st.Hits+st.Misses != 0 {
				t.Fatalf("unexpected cache traffic: %+v", st)
			}
			if st.Category == CategoryEmergency {
				hits, misses = st.Hits, st.Misses
			}
		}
		return hits, misses
	}
	if _, err := h.client.Disclose("alice/r1", "dr-bob@clinic.example"); err != nil {
		t.Fatal(err)
	}
	if hits, misses := counts(); hits != 0 || misses != 1 {
		t.Fatalf("first disclose: hits %d, misses %d; want 0, 1", hits, misses)
	}
	if _, err := h.client.Disclose("alice/r1", "dr-bob@clinic.example"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.client.DiscloseCategory(h.alice.ID(), CategoryEmergency, "dr-bob@clinic.example"); err != nil {
		t.Fatal(err)
	}
	if hits, misses := counts(); hits != 2 || misses != 1 {
		t.Fatalf("repeats: hits %d, misses %d; want 2, 1", hits, misses)
	}
}

// flushCounter is a ResponseWriter that counts flushes.
type flushCounter struct {
	*httptest.ResponseRecorder
	flushes int
}

func (f *flushCounter) Flush() { f.flushes++ }

// TestHTTPStreamFlushesOnlyToWait checks when the stream endpoint
// flushes: before each pairing it must wait for on a cold stream (the
// pool is one goroutine here, so before every record but the first), and
// never on a warm one, which leaves in one write.
func TestHTTPStreamFlushesOnlyToWait(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	h := newHTTPScenario(t)
	const n = 4
	for i := 0; i < n; i++ {
		if _, err := h.alice.AddRecord(h.svc.Store, CategoryEmergency, []byte{byte(i)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := grantAt(h.svc, h.alice, h.kgc2.Params(), h.bobKey.ID, CategoryEmergency); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(h.svc)
	stream := func() *flushCounter {
		w := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
		srv.ServeHTTP(w, httptest.NewRequest("GET", "/v1/patients/"+h.alice.ID()+"/categories/"+string(CategoryEmergency)+"?requester="+h.bobKey.ID, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
		frames := 0
		if err := DecodeBulkStream(w.Body, func(*hybrid.ReCiphertext) error { frames++; return nil }); err != nil || frames != n {
			t.Fatalf("decoded %d frames, err %v", frames, err)
		}
		return w
	}
	if cold := stream(); cold.flushes != n-1 {
		t.Fatalf("cold stream flushed %d times, want %d", cold.flushes, n-1)
	}
	if warm := stream(); warm.flushes != 0 {
		t.Fatalf("warm stream flushed %d times, want 0", warm.flushes)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	h := newHTTPScenario(t)
	// Missing metadata headers.
	resp, err := http.Post(h.ts.URL+"/v1/records", "application/octet-stream", bytes.NewReader([]byte("junk")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("want 400, got %d", resp.StatusCode)
	}
	// Garbage grant body.
	resp, err = http.Post(h.ts.URL+"/v1/grants", "application/octet-stream", bytes.NewReader([]byte("junk")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("want 400, got %d", resp.StatusCode)
	}
	// Missing requester.
	resp, err = http.Get(h.ts.URL + "/v1/records/alice/r1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("want 400, got %d", resp.StatusCode)
	}
	// Unknown audit category.
	resp, err = http.Get(h.ts.URL + "/v1/audit?category=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("want 404, got %d", resp.StatusCode)
	}
}

// failingGetBackend is a store that fails to read every record it holds;
// its index still answers, as a disk store's does when a frame cannot be
// read.
type failingGetBackend struct{ Backend }

func (b failingGetBackend) Get(id string) (*EncryptedRecord, error) {
	if _, _, ok := b.Route(id); !ok {
		return b.Backend.Get(id)
	}
	return nil, fmt.Errorf("%w: injected read failure of %s", ErrStorage, id)
}

// TestHTTPFailedReadIsAudited checks that a record the store cannot read
// reaches its category's proxy: a granted requester gets a 500 and the
// proxy audits one OutcomeError entry; a requester without a grant gets
// the denial; an unknown record is still a 404 that no proxy audits.
func TestHTTPFailedReadIsAudited(t *testing.T) {
	s := newScenario(t)
	svc := NewService(StandardCategories(), failingGetBackend{NewStore()})
	rec, err := s.alice.AddRecord(svc.Store, CategoryEmergency, []byte("bt O−"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := grantAt(svc, s.alice, s.kgc2.Params(), s.bobKey.ID, CategoryEmergency); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()
	proxy, err := svc.ProxyFor(CategoryEmergency)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name, id, requester string
		status              int
		audited             []Outcome
	}{
		{"granted", rec.ID, s.bobKey.ID, http.StatusInternalServerError, []Outcome{OutcomeError}},
		{"denied", rec.ID, s.eveKey.ID, http.StatusForbidden, []Outcome{OutcomeNoGrant}},
		{"unknown", "alice/no-such-record", s.bobKey.ID, http.StatusNotFound, nil},
	} {
		before := proxy.Audit().Len()
		resp, err := http.Get(ts.URL + "/v1/records/" + tc.id + "?requester=" + tc.requester)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
		entries := proxy.Audit().Tail(0)[before:]
		if len(entries) != len(tc.audited) {
			t.Fatalf("%s: %d audit entries, want %d: %+v", tc.name, len(entries), len(tc.audited), entries)
		}
		for i, e := range entries {
			if e.Outcome != tc.audited[i] || e.RecordID != tc.id || e.Requester != tc.requester {
				t.Fatalf("%s: audit entry %+v, want %s on %s for %s", tc.name, e, tc.audited[i], tc.id, tc.requester)
			}
		}
	}
}
