package diskstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"typepre/internal/core"
	"typepre/internal/hybrid"
	"typepre/internal/ibe"
	"typepre/internal/phr"
)

// testSealed builds one real sealed container once; records in these
// tests share its KEM and vary the (opaque to the store) payload bytes.
var testSealed = sync.OnceValue(func() *hybrid.Ciphertext {
	kgc, err := ibe.Setup("diskstore-test", nil)
	if err != nil {
		panic(err)
	}
	del := core.NewDelegator(kgc.Extract("alice@phr.example"))
	ct, err := hybrid.Encrypt(del, []byte("diskstore test body"), core.Type(phr.CategoryEmergency), nil)
	if err != nil {
		panic(err)
	}
	return ct
})

// testRecord mints a record with a payload of n bytes derived from the
// id, so byte-level integrity is checkable after recovery.
func testRecord(id, patient string, c phr.Category, n int) *phr.EncryptedRecord {
	base := testSealed()
	payload := make([]byte, n)
	for i := range payload {
		payload[i] = byte(int(id[len(id)-1]) + i)
	}
	return &phr.EncryptedRecord{
		ID:        id,
		PatientID: patient,
		Category:  c,
		CreatedAt: time.Unix(0, 1234567890),
		Sealed: &hybrid.Ciphertext{
			KEM:     &core.Ciphertext{C1: base.KEM.C1, C2: base.KEM.C2, Type: core.Type(c)},
			Nonce:   base.Nonce,
			Payload: payload,
		},
	}
}

func openT(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestCRUDRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})

	recs := []*phr.EncryptedRecord{
		testRecord("a/1", "alice", phr.CategoryEmergency, 100),
		testRecord("a/2", "alice", phr.CategoryMedication, 200),
		testRecord("a/3", "alice", phr.CategoryEmergency, 50),
		testRecord("b/1", "bob", phr.CategoryLabResults, 300),
	}
	for _, r := range recs {
		if err := s.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put(recs[0]); !errors.Is(err, phr.ErrDuplicate) {
		t.Fatalf("duplicate put: got %v, want ErrDuplicate", err)
	}
	if _, err := s.Get("nope"); !errors.Is(err, phr.ErrNotFound) {
		t.Fatalf("missing get: got %v, want ErrNotFound", err)
	}

	// Replace swaps the sealed body in place.
	repl := testRecord("a/2", "alice", phr.CategoryMedication, 222)
	if err := s.Replace(repl); err != nil {
		t.Fatal(err)
	}
	wrongRoute := testRecord("a/2", "alice", phr.CategoryEmergency, 10)
	if err := s.Replace(wrongRoute); err == nil {
		t.Fatal("replace accepted a routing-metadata change")
	}
	if err := s.Delete("a/3"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("a/3"); !errors.Is(err, phr.ErrNotFound) {
		t.Fatalf("double delete: got %v, want ErrNotFound", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: indexes rebuilt from the log.
	s2 := openT(t, dir, Options{})
	if n := s2.Count(); n != 3 {
		t.Fatalf("Count after reopen = %d, want 3", n)
	}
	got, err := s2.Get("a/2")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Sealed.Payload, repl.Sealed.Payload) {
		t.Fatal("replace lost across reopen")
	}
	if got.CreatedAt.UnixNano() != 1234567890 {
		t.Fatalf("CreatedAt lost: %v", got.CreatedAt)
	}
	if _, err := s2.Get("a/3"); !errors.Is(err, phr.ErrNotFound) {
		t.Fatalf("tombstone not replayed: %v", err)
	}
	listed, err := s2.ListByPatient("alice")
	if err != nil {
		t.Fatal(err)
	}
	if len(listed) != 2 || listed[0].ID != "a/1" || listed[1].ID != "a/2" {
		t.Fatalf("insertion order lost: %v", ids(listed))
	}
	byCat, err := s2.ListByPatientCategory("alice", phr.CategoryEmergency)
	if err != nil {
		t.Fatal(err)
	}
	if len(byCat) != 1 || byCat[0].ID != "a/1" {
		t.Fatalf("category index = %v", ids(byCat))
	}
	if ps := s2.Patients(); len(ps) != 2 || ps[0] != "alice" || ps[1] != "bob" {
		t.Fatalf("Patients = %v", ps)
	}
	if listed[0].Category == listed[1].Category {
		t.Fatalf("categories lost: both records are %s", listed[0].Category)
	}
	if recs, err := s2.ListByPatient("bob"); err != nil || len(recs) != 1 {
		t.Fatalf("ListByPatient(bob) = %d records (err %v)", len(recs), err)
	}
	st := s2.Recovery()
	if st.Records != 3 || st.TruncatedBytes != 0 {
		t.Fatalf("recovery stats = %+v", st)
	}
}

func ids(recs []*phr.EncryptedRecord) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.ID
	}
	return out
}

func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if _, ok := parseSegName(e.Name()); ok {
			out = append(out, e.Name())
		}
	}
	return out
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{SegmentBytes: 4 << 10})
	for i := 0; i < 40; i++ {
		if err := s.Put(testRecord(fmt.Sprintf("r/%03d", i), "alice", phr.CategoryEmergency, 256)); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(segFiles(t, dir)); n < 3 {
		t.Fatalf("no rotation: %d segment files", n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir, Options{SegmentBytes: 4 << 10})
	if s2.Count() != 40 {
		t.Fatalf("Count after multi-segment reopen = %d, want 40", s2.Count())
	}
	recs, err := s2.ListByPatient("alice")
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if r.ID != fmt.Sprintf("r/%03d", i) {
			t.Fatalf("order broken at %d: %s", i, r.ID)
		}
	}
}

func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{SegmentBytes: 4 << 10})
	for i := 0; i < 30; i++ {
		if err := s.Put(testRecord(fmt.Sprintf("r/%03d", i), "alice", phr.CategoryEmergency, 256)); err != nil {
			t.Fatal(err)
		}
	}
	// Churn: delete a third, replace a third.
	for i := 0; i < 30; i += 3 {
		if err := s.Delete(fmt.Sprintf("r/%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < 30; i += 3 {
		if err := s.Replace(testRecord(fmt.Sprintf("r/%03d", i), "alice", phr.CategoryEmergency, 64)); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Stats()
	if before.GarbageBytes == 0 {
		t.Fatal("expected garbage before compaction")
	}
	segsBefore := len(segFiles(t, dir))
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if after.GarbageBytes != 0 {
		t.Fatalf("garbage after compaction = %d", after.GarbageBytes)
	}
	if after.Records != 20 {
		t.Fatalf("records after compaction = %d, want 20", after.Records)
	}
	if segsAfter := len(segFiles(t, dir)); segsAfter >= segsBefore {
		t.Fatalf("compaction grew segments: %d -> %d", segsBefore, segsAfter)
	}
	// Reads and writes keep working on the compacted log…
	if _, err := s.Get("r/001"); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testRecord("post/1", "alice", phr.CategoryEmergency, 32)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// …and the compacted directory replays to the same state.
	s2 := openT(t, dir, Options{SegmentBytes: 4 << 10})
	if s2.Count() != 21 {
		t.Fatalf("Count after compacted reopen = %d, want 21", s2.Count())
	}
	got, err := s2.Get("r/001")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Sealed.Payload) != 64 {
		t.Fatalf("replaced body lost through compaction: %d bytes", len(got.Sealed.Payload))
	}
	for i := 0; i < 30; i += 3 {
		if _, err := s2.Get(fmt.Sprintf("r/%03d", i)); !errors.Is(err, phr.ErrNotFound) {
			t.Fatalf("deleted record r/%03d resurrected: %v", i, err)
		}
	}
}

func TestFsyncIntervalMode(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{Fsync: FsyncInterval, FsyncInterval: 5 * time.Millisecond})
	if err := s.Put(testRecord("x/1", "alice", phr.CategoryEmergency, 128)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the background flusher run
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir, Options{})
	if s2.Count() != 1 {
		t.Fatalf("Count = %d, want 1", s2.Count())
	}
}

func TestClosedStoreFails(t *testing.T) {
	s := openT(t, t.TempDir(), Options{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close is not idempotent: %v", err)
	}
	if err := s.Put(testRecord("x/1", "alice", phr.CategoryEmergency, 8)); !errors.Is(err, phr.ErrStorage) {
		t.Fatalf("put on closed store: %v", err)
	}
	if _, err := s.Get("x/1"); !errors.Is(err, phr.ErrStorage) {
		t.Fatalf("get on closed store: %v", err)
	}
}

func TestCorruptMiddleSegmentFailsOpen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{SegmentBytes: 2 << 10})
	for i := 0; i < 20; i++ {
		if err := s.Put(testRecord(fmt.Sprintf("r/%03d", i), "alice", phr.CategoryEmergency, 256)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs := segFiles(t, dir)
	if len(segs) < 2 {
		t.Fatalf("need multiple segments, have %v", segs)
	}
	// Flip one payload byte in the FIRST segment: not a torn tail, real
	// corruption, and Open must refuse to silently drop data.
	first := filepath.Join(dir, segs[0])
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over corrupt middle segment: %v, want ErrCorrupt", err)
	}
}

// TestReplayParsesMetadataOnly writes a frame whose CRC verifies but
// whose c1 has a coordinate ≥ p. Replay parses a record's metadata and
// its container's framing only, so the store opens with the record
// indexed; reading it decodes c1 and fails with ErrStorage, on Get and on
// a list that includes it, while the other records still read.
func TestReplayParsesMetadataOnly(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	bad := testRecord("a/bad", "alice", phr.CategoryEmergency, 32)
	for _, r := range []*phr.EncryptedRecord{bad, testRecord("b/good", "bob", phr.CategoryEmergency, 32)} {
		if err := s.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The first frame holds a/bad: overwrite c1's first coordinate with
	// 2^256−1 and reseal the frame's CRC.
	path := filepath.Join(dir, segFiles(t, dir)[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n := binary.BigEndian.Uint32(data)
	frame := data[:frameHeaderLen+n]
	at := bytes.Index(frame, bad.Sealed.KEM.C1.Marshal())
	if at < 0 {
		t.Fatal("c1 not found in the first frame")
	}
	copy(frame[at:at+32], bytes.Repeat([]byte{0xff}, 32))
	binary.BigEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(frame[frameHeaderLen:]))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir, Options{})
	if n := s2.Count(); n != 2 {
		t.Fatalf("Count after reopen = %d, want 2", n)
	}
	if _, err := s2.Get("a/bad"); !errors.Is(err, phr.ErrStorage) {
		t.Fatalf("Get of the damaged record: %v, want ErrStorage", err)
	}
	if _, err := s2.ListByPatient("alice"); !errors.Is(err, phr.ErrStorage) {
		t.Fatalf("ListByPatient over the damaged record: %v, want ErrStorage", err)
	}
	if _, err := s2.Get("b/good"); err != nil {
		t.Fatalf("Get of an intact record: %v", err)
	}
}

// TestReadChecksCRC flips a payload byte of a live record after the store
// opened: the read verifies the frame's CRC and fails with ErrCorrupt,
// not decoding what the store did not write.
func TestReadChecksCRC(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	if err := s.Put(testRecord("a/1", "alice", phr.CategoryEmergency, 64)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segFiles(t, dir)[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("a/1"); !errors.Is(err, phr.ErrStorage) || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get of a flipped frame: %v, want ErrStorage and ErrCorrupt", err)
	}
}

// TestFailedDiskReadIsAudited damages a granted record's frame on disk
// and discloses it over HTTP through a Service on the store: the read
// fails its CRC check, the request gets a 500, and the category's proxy
// audits exactly one OutcomeError entry for that record and requester.
func TestFailedDiskReadIsAudited(t *testing.T) {
	kgc1, err := ibe.Setup("diskstore-audit-kgc1", nil)
	if err != nil {
		t.Fatal(err)
	}
	kgc2, err := ibe.Setup("diskstore-audit-kgc2", nil)
	if err != nil {
		t.Fatal(err)
	}
	const requester = "dr-bob@clinic.example"
	dir := t.TempDir()
	svc := phr.NewService(phr.StandardCategories(), openT(t, dir, Options{}))
	alice := phr.NewPatient(kgc1, "alice@phr.example")
	rec, err := alice.AddRecord(svc.Store, phr.CategoryEmergency, []byte("bt O−"), nil)
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := svc.ProxyFor(phr.CategoryEmergency)
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.Grant(proxy, kgc2.Params(), requester, phr.CategoryEmergency, nil); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, segFiles(t, dir)[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(phr.NewServer(svc))
	defer ts.Close()
	before := proxy.Audit().Len()
	resp, err := http.Get(ts.URL + "/v1/records/" + url.PathEscape(rec.ID) + "?requester=" + url.QueryEscape(requester))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	entries := proxy.Audit().Tail(0)[before:]
	if len(entries) != 1 || entries[0].Outcome != phr.OutcomeError || entries[0].RecordID != rec.ID || entries[0].Requester != requester {
		t.Fatalf("audit entries %+v, want one %s on %s for %s", entries, phr.OutcomeError, rec.ID, requester)
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	s := openT(t, t.TempDir(), Options{Fsync: FsyncInterval})
	for i := 0; i < 8; i++ {
		if err := s.Put(testRecord(fmt.Sprintf("seed/%d", i), "alice", phr.CategoryEmergency, 64)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := fmt.Sprintf("w%d/%d", g, i)
				if err := s.Put(testRecord(id, "bob", phr.CategoryMedication, 64)); err != nil {
					errs <- err
					return
				}
				if _, err := s.Get(id); err != nil {
					errs <- err
					return
				}
				if _, err := s.ListByPatientCategory("alice", phr.CategoryEmergency); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := s.Count(); n != 8+4*50 {
		t.Fatalf("Count = %d, want %d", n, 8+4*50)
	}
}

// TestSustains100kRecords is the scale gate from the roadmap: 100k sealed
// records through the log, reopened with a full index rebuild, spot reads
// intact. Memory holds only the index; bodies stay on disk.
func TestSustains100kRecords(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-record scale test skipped in -short mode")
	}
	const n = 100_000
	dir := t.TempDir()
	s := openT(t, dir, Options{Fsync: FsyncInterval, SegmentBytes: 16 << 20})
	for i := 0; i < n; i++ {
		patient := fmt.Sprintf("p-%03d", i%199)
		if err := s.Put(testRecord(fmt.Sprintf("rec/%06d", i), patient, phr.CategoryEmergency, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Count() != n {
		t.Fatalf("Count = %d", s.Count())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	reopen := time.Now()
	s2 := openT(t, dir, Options{})
	t.Logf("reopened %d records in %v", n, time.Since(reopen))
	if s2.Count() != n {
		t.Fatalf("Count after reopen = %d, want %d", s2.Count(), n)
	}
	for _, i := range []int{0, 1, n / 2, n - 2, n - 1} {
		rec, err := s2.Get(fmt.Sprintf("rec/%06d", i))
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Sealed.Payload) != 64 {
			t.Fatalf("record %d payload = %d bytes", i, len(rec.Sealed.Payload))
		}
	}
}

// TestServiceOverDiskBackend is the end-to-end check: a real workload
// generated into a disk backend, disclosed through the service, then the
// backend is restarted and the records disclose identically (grants are
// in-proxy state and are re-installed, as after a real server restart).
// readCategory discloses every record of (patient, category) through the
// service's HTTP API and decrypts each with the requester's key.
func readCategory(t *testing.T, svc *phr.Service, patientID string, c phr.Category, key *ibe.PrivateKey) [][]byte {
	t.Helper()
	ts := httptest.NewServer(phr.NewServer(svc))
	defer ts.Close()
	client := &phr.Client{Base: ts.URL, HTTP: ts.Client()}
	var out [][]byte
	err := client.DiscloseCategoryStream(patientID, c, key.ID, func(rct *hybrid.ReCiphertext) error {
		body, err := hybrid.DecryptReEncrypted(key, rct)
		out = append(out, body)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestServiceOverDiskBackend(t *testing.T) {
	dir := t.TempDir()
	backend := openT(t, dir, Options{})

	cfg := phr.DefaultWorkload()
	cfg.Backend = backend
	w, err := phr.GenerateWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if backend.Count() != len(w.Records) {
		t.Fatalf("backend holds %d records, workload made %d", backend.Count(), len(w.Records))
	}
	g := w.Grants[0]
	key := w.Requesters[g.RequesterID]
	before := readCategory(t, w.Service, g.PatientID, g.Category, key)
	if err := backend.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: new backend over the same directory, fresh service (fresh
	// proxies — grants do not survive, exactly like a process restart),
	// re-grant, and the same records disclose to the same plaintexts.
	backend2 := openT(t, dir, Options{})
	if backend2.Count() != len(w.Records) {
		t.Fatalf("restart lost records: %d, want %d", backend2.Count(), len(w.Records))
	}
	svc2 := phr.NewService(cfg.Categories, backend2)
	var patient *phr.Patient
	for _, p := range w.Patients {
		if p.ID() == g.PatientID {
			patient = p
		}
	}
	proxy, err := svc2.ProxyFor(g.Category)
	if err != nil {
		t.Fatal(err)
	}
	if err := patient.Grant(proxy, w.KGC2.Params(), g.RequesterID, g.Category, nil); err != nil {
		t.Fatal(err)
	}
	after := readCategory(t, svc2, g.PatientID, g.Category, key)
	if len(after) != len(before) {
		t.Fatalf("disclosed %d records after restart, want %d", len(after), len(before))
	}
	for i := range after {
		if !bytes.Equal(after[i], before[i]) {
			t.Fatalf("record %d plaintext changed across restart", i)
		}
	}
}
