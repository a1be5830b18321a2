package phr

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"typepre/internal/core"
	"typepre/internal/hybrid"
)

// HTTP-level lifecycle tests: the revocation, key-rotation and
// break-glass stories of lifecycle_test.go, driven through phrserver
// handlers and phr.Client so the wire protocol (status mapping, framing,
// audit visibility) is pinned against the same invariants.

// TestHTTPRevocationDrill runs the revocation story over the wire: grant,
// disclose on every endpoint, revoke via the API, then watch every
// disclosure path deny with 403 and the denial land in the audit log
// fetched through the API.
func TestHTTPRevocationDrill(t *testing.T) {
	h := newHTTPScenario(t)
	const requester = "dr-bob@clinic.example"
	bodies := [][]byte{[]byte("bt O−"), []byte("allergy: latex")}
	for i, b := range bodies {
		rec := h.sealRecord(t, fmt.Sprintf("alice/rev-%d", i), CategoryEmergency, b)
		if err := h.client.PutRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	rk, err := h.alice.Delegator().Delegate(h.kgc2.Params(), requester, CategoryEmergency, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.client.InstallGrant(rk); err != nil {
		t.Fatal(err)
	}
	// Both disclosure shapes serve while the grant stands.
	if _, err := h.client.Disclose("alice/rev-0", requester); err != nil {
		t.Fatal(err)
	}
	rcts, err := h.client.DiscloseCategory(h.alice.ID(), CategoryEmergency, requester)
	if err != nil || len(rcts) != len(bodies) {
		t.Fatalf("pre-revoke bulk: err=%v n=%d", err, len(rcts))
	}

	if err := h.client.RevokeGrant(h.alice.ID(), CategoryEmergency, requester); err != nil {
		t.Fatal(err)
	}
	// Every path is now a 403 — the revoked pair cannot be served from any
	// warm cache.
	if _, err := h.client.Disclose("alice/rev-0", requester); err == nil || !strings.Contains(err.Error(), "403") {
		t.Fatalf("single disclosure after revoke: want 403, got %v", err)
	}
	if _, err := h.client.DiscloseCategory(h.alice.ID(), CategoryEmergency, requester); err == nil || !strings.Contains(err.Error(), "403") {
		t.Fatalf("bulk disclosure after revoke: want 403, got %v", err)
	}
	// The audit trail, fetched over the wire, records the granted
	// disclosures followed by the denials.
	entries, err := h.client.Audit(CategoryEmergency)
	if err != nil {
		t.Fatal(err)
	}
	var granted, denied int
	for _, e := range entries {
		switch {
		case e.Outcome == OutcomeGranted:
			granted++
		case isDenial(e.Outcome):
			denied++
		}
	}
	if granted != 1+len(bodies) || denied != 2 {
		t.Fatalf("audit over HTTP: granted=%d denied=%d, want %d/2", granted, denied, 1+len(bodies))
	}
}

// TestHTTPRotationDrill runs the key-rotation story over the wire: after
// the patient rotates a category's type key, the pre-rotation grant is
// denied with 403 (ErrStaleGrant mapping) and audited as stale; a fresh
// grant installed through the API serves the re-sealed records and
// records sealed under the new epoch.
func TestHTTPRotationDrill(t *testing.T) {
	h := newHTTPScenario(t)
	const requester = "dr-bob@clinic.example"
	want := [][]byte{[]byte("metformin 500mg"), []byte("lisinopril 10mg")}
	for i, b := range want {
		rec := h.sealRecord(t, fmt.Sprintf("alice/rot-%d", i), CategoryMedication, b)
		if err := h.client.PutRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	rk, err := h.alice.Delegator().Delegate(h.kgc2.Params(), requester, CategoryMedication, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.client.InstallGrant(rk); err != nil {
		t.Fatal(err)
	}
	if _, err := h.client.Disclose("alice/rot-0", requester); err != nil {
		t.Fatal(err)
	}

	// Rotation is a patient-side operation against the store; the wire
	// contract under test is what the service answers afterwards.
	if _, err := h.alice.RotateTypeKey(h.svc.Store, CategoryMedication, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := h.client.Disclose("alice/rot-0", requester); err == nil || !strings.Contains(err.Error(), "403") {
		t.Fatalf("stale grant single disclosure: want 403, got %v", err)
	}
	if _, err := h.client.DiscloseCategory(h.alice.ID(), CategoryMedication, requester); err == nil || !strings.Contains(err.Error(), "403") {
		t.Fatalf("stale grant bulk disclosure: want 403, got %v", err)
	}
	entries, err := h.client.Audit(CategoryMedication)
	if err != nil {
		t.Fatal(err)
	}
	var stale int
	for _, e := range entries {
		if e.Outcome == OutcomeStaleGrant {
			stale++
		}
	}
	if stale != 2 {
		t.Fatalf("stale-grant audit entries over HTTP = %d, want 2", stale)
	}

	// A fresh grant for the rotated epoch, installed through the API,
	// restores service — including a record sealed directly under the new
	// epoch's wire type and uploaded through the API.
	rk2, err := h.alice.Delegator().Delegate(h.kgc2.Params(), requester,
		core.VersionedType(core.Type(CategoryMedication), h.alice.Epoch(CategoryMedication)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.client.InstallGrant(rk2); err != nil {
		t.Fatal(err)
	}
	post := []byte("atorvastatin 20mg")
	sealed, err := hybrid.Encrypt(h.alice.Delegator(), post,
		core.VersionedType(core.Type(CategoryMedication), h.alice.Epoch(CategoryMedication)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.client.PutRecord(&EncryptedRecord{
		ID: "alice/rot-post", PatientID: h.alice.ID(), Category: CategoryMedication, Sealed: sealed,
	}); err != nil {
		t.Fatal(err)
	}
	rcts, err := h.client.DiscloseCategory(h.alice.ID(), CategoryMedication, requester)
	if err != nil {
		t.Fatal(err)
	}
	if len(rcts) != len(want)+1 {
		t.Fatalf("post-rotation bulk returned %d records, want %d", len(rcts), len(want)+1)
	}
	for i, b := range append(append([][]byte{}, want...), post) {
		got, err := hybrid.DecryptReEncrypted(h.bobKey, rcts[i])
		if err != nil || !bytes.Equal(got, b) {
			t.Fatalf("post-rotation record %d: err=%v mismatch=%v", i, err, !bytes.Equal(got, b))
		}
	}
}

// TestHTTPRevokeByWireType revokes a post-rotation grant by the wire type
// its rekey carries ("medication#e1"): install keys grants by the logical
// category, so revoke must too — 204, then the pair is denied.
func TestHTTPRevokeByWireType(t *testing.T) {
	h := newHTTPScenario(t)
	const requester = "dr-bob@clinic.example"
	rec := h.sealRecord(t, "alice/wire-0", CategoryMedication, []byte("metformin 500mg"))
	if err := h.client.PutRecord(rec); err != nil {
		t.Fatal(err)
	}
	if _, err := h.alice.RotateTypeKey(h.svc.Store, CategoryMedication, nil); err != nil {
		t.Fatal(err)
	}
	wireType := core.VersionedType(core.Type(CategoryMedication), h.alice.Epoch(CategoryMedication))
	rk, err := h.alice.Delegator().Delegate(h.kgc2.Params(), requester, wireType, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.client.InstallGrant(rk); err != nil {
		t.Fatal(err)
	}
	if _, err := h.client.Disclose("alice/wire-0", requester); err != nil {
		t.Fatalf("re-granted disclosure: %v", err)
	}
	if err := h.client.RevokeGrant(h.alice.ID(), rk.Type, requester); err != nil {
		t.Fatalf("revoke by wire type %q: %v", rk.Type, err)
	}
	if _, err := h.client.Disclose("alice/wire-0", requester); err == nil || !strings.Contains(err.Error(), "403") {
		t.Fatalf("disclosure after revoke: want 403, got %v", err)
	}
}

// TestHTTPAuditByWireType reads a proxy's audit log by the rotation-epoch
// wire type ("medication#e1"), as revoke may name a grant: the audit route
// must strip the epoch suffix to find the proxy, not answer 404.
func TestHTTPAuditByWireType(t *testing.T) {
	h := newHTTPScenario(t)
	rec := h.sealRecord(t, "alice/wire-audit", CategoryMedication, []byte("metformin 500mg"))
	if err := h.client.PutRecord(rec); err != nil {
		t.Fatal(err)
	}
	if _, err := h.alice.RotateTypeKey(h.svc.Store, CategoryMedication, nil); err != nil {
		t.Fatal(err)
	}
	h.client.Disclose("alice/wire-audit", "eve@outside.example") // denied, audited
	wireType := core.VersionedType(core.Type(CategoryMedication), h.alice.Epoch(CategoryMedication))
	byWire, err := h.client.Audit(wireType)
	if err != nil {
		t.Fatalf("audit by wire type %q: %v", wireType, err)
	}
	byBase, err := h.client.Audit(CategoryMedication)
	if err != nil {
		t.Fatal(err)
	}
	if len(byWire) != 1 || byWire[0].Outcome != OutcomeNoGrant || byWire[0].Seq != byBase[0].Seq {
		t.Fatalf("audit by wire type = %+v, by category = %+v", byWire, byBase)
	}
}

// TestHTTPBreakGlassDrill runs the break-glass story over the wire: the
// mandatory reason (400 without it, no audit traffic), streamed emergency
// disclosure through the standing grant, the distinguishable audit
// outcome carrying the reason, and the 403 for a responder without a
// grant — with the denial and its reason on record.
func TestHTTPBreakGlassDrill(t *testing.T) {
	h := newHTTPScenario(t)
	const responder = "dr-bob@clinic.example"
	emergency := [][]byte{[]byte("blood type O−"), []byte("allergy: penicillin")}
	for i, b := range emergency {
		rec := h.sealRecord(t, fmt.Sprintf("alice/bg-%d", i), CategoryEmergency, b)
		if err := h.client.PutRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	rk, err := h.alice.Delegator().Delegate(h.kgc2.Params(), responder, CategoryEmergency, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.client.InstallGrant(rk); err != nil {
		t.Fatal(err)
	}

	// Reason is mandatory: 400, and the refusal leaks nothing to the log.
	err = h.client.BreakGlass(h.alice.ID(), responder, "", func(*hybrid.ReCiphertext) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("break-glass without reason: want 400, got %v", err)
	}
	if entries, err := h.client.Audit(CategoryEmergency); err != nil || len(entries) != 0 {
		t.Fatalf("reason-less break-glass audit traffic: err=%v entries=%+v", err, entries)
	}

	const reason = "cardiac arrest, ER admission #4711"
	var got [][]byte
	err = h.client.BreakGlass(h.alice.ID(), responder, reason, func(rct *hybrid.ReCiphertext) error {
		b, err := hybrid.DecryptReEncrypted(h.bobKey, rct)
		if err != nil {
			return err
		}
		got = append(got, b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(emergency) {
		t.Fatalf("break-glass streamed %d records, want %d", len(got), len(emergency))
	}
	for i := range emergency {
		if !bytes.Equal(got[i], emergency[i]) {
			t.Fatalf("break-glass record %d mismatch", i)
		}
	}
	entries, err := h.client.Audit(CategoryEmergency)
	if err != nil {
		t.Fatal(err)
	}
	var bg int
	for _, e := range entries {
		if e.Outcome == OutcomeBreakGlass {
			bg++
			if e.Note != reason {
				t.Fatalf("break-glass entry lost its reason: %+v", e)
			}
		}
	}
	if bg != len(emergency) {
		t.Fatalf("break-glass audit entries over HTTP = %d, want %d", bg, len(emergency))
	}

	// No standing grant → 403, denial audited with the reason.
	err = h.client.BreakGlass(h.alice.ID(), "eve@outside.example", reason, func(*hybrid.ReCiphertext) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "403") {
		t.Fatalf("unauthorized break-glass: want 403, got %v", err)
	}
	entries, err = h.client.Audit(CategoryEmergency)
	if err != nil {
		t.Fatal(err)
	}
	last := entries[len(entries)-1]
	if last.Outcome != OutcomeNoGrant || last.Note != reason {
		t.Fatalf("unauthorized break-glass denial = %+v", last)
	}
}

// TestHTTPMetricsEndpoint pins the instrumentation surface: after a few
// requests, /v1/metrics reports per-endpoint counts with the documented
// labels, and error requests are counted as errors.
func TestHTTPMetricsEndpoint(t *testing.T) {
	h := newHTTPScenario(t)
	rec := h.sealRecord(t, "alice/m1", CategoryEmergency, []byte("x"))
	if err := h.client.PutRecord(rec); err != nil {
		t.Fatal(err)
	}
	h.client.Disclose("alice/m1", "eve@outside.example") // 403 → error count
	if _, err := h.client.Audit(CategoryEmergency); err != nil {
		t.Fatal(err)
	}

	m, err := h.client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	byEndpoint := map[string]int{}
	errs := map[string]int{}
	for _, e := range m.Endpoints {
		byEndpoint[e.Endpoint] = int(e.Ops)
		errs[e.Endpoint] = int(e.Errors)
	}
	if byEndpoint[EndpointPut] != 1 || byEndpoint[EndpointDisclose] != 1 || byEndpoint[EndpointAudit] != 1 {
		t.Fatalf("endpoint ops = %+v", byEndpoint)
	}
	if errs[EndpointDisclose] != 1 {
		t.Fatalf("denied disclosure not counted as error: %+v", errs)
	}
	if m.InFlightHigh < 1 {
		t.Fatalf("in-flight high-water mark = %d, want ≥ 1", m.InFlightHigh)
	}
	if m.UptimeSeconds <= 0 {
		t.Fatalf("uptime = %v", m.UptimeSeconds)
	}
}

// TestHTTPAuditLimit pins the bounded-tail contract of GET /v1/audit.
func TestHTTPAuditLimit(t *testing.T) {
	h := newHTTPScenario(t)
	rec := h.sealRecord(t, "alice/l1", CategoryEmergency, []byte("x"))
	if err := h.client.PutRecord(rec); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		h.client.Disclose("alice/l1", "eve@outside.example") // audited denials
	}
	resp, err := http.Get(h.ts.URL + "/v1/audit?category=" + string(CategoryEmergency) + "&limit=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var entries []AuditEntry
	if err := json.NewDecoder(resp.Body).Decode(&entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("limit=2 returned %d entries", len(entries))
	}
	if entries[0].Seq != 4 || entries[1].Seq != 5 {
		t.Fatalf("limit tail = seqs %d,%d, want 4,5", entries[0].Seq, entries[1].Seq)
	}
	// Malformed limit → 400.
	resp, err = http.Get(h.ts.URL + "/v1/audit?category=" + string(CategoryEmergency) + "&limit=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("limit=bogus: want 400, got %d", resp.StatusCode)
	}
}

// TestAuditJSONBodyMatchesMarshal pins the incremental encode cache to the
// reference encoding byte for byte, across interleaved appends and reads.
func TestAuditJSONBodyMatchesMarshal(t *testing.T) {
	log := NewAuditLog()
	check := func() {
		t.Helper()
		got := append(append([]byte{'['}, log.TailJSON(0)...), ']')
		want, err := json.Marshal(log.Tail(0))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("cache diverged from json.Marshal:\n got %s\nwant %s", got, want)
		}
	}
	check() // empty log → []
	for i := 0; i < 10; i++ {
		log.Append(AuditEntry{Proxy: "p", RecordID: fmt.Sprintf("r%d", i),
			Requester: "q", Outcome: OutcomeGranted, Note: "why & <how>"})
		if i%3 == 0 {
			check() // interleave reads so the cache extends incrementally
		}
	}
	check()
}

// ---------------------------------------------------------------------------
// Bulk-stream decoder: corrupt and truncated streams
// ---------------------------------------------------------------------------

// validFrame produces one wire frame holding a freshly re-encrypted
// container, plus the expected plaintext.
func validFrame(t *testing.T) []byte {
	t.Helper()
	s := newScenario(t)
	rec, err := s.alice.AddRecord(s.svc.Store, CategoryEmergency, []byte("frame body"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := grantAt(s.svc, s.alice, s.kgc2.Params(), s.bobKey.ID, CategoryEmergency); err != nil {
		t.Fatal(err)
	}
	rct, err := s.svc.Request(rec.ID, s.bobKey.ID)
	if err != nil {
		t.Fatal(err)
	}
	b := rct.Marshal()
	frame := make([]byte, 4, 4+len(b))
	binary.BigEndian.PutUint32(frame, uint32(len(b)))
	return append(frame, b...)
}

func TestDecodeBulkStreamCorruptAndTruncated(t *testing.T) {
	frame := validFrame(t)
	absurd := make([]byte, 4)
	binary.BigEndian.PutUint32(absurd, uint32(MaxRecordBytes+4097))
	garbage := append([]byte{0, 0, 0, 4}, []byte("junk")...)

	cases := []struct {
		name       string
		stream     []byte
		wantFrames int
		wantErr    error // nil = clean EOF
		wantEnc    bool  // hybrid.ErrEncoding expected
	}{
		{name: "empty stream", stream: nil, wantFrames: 0},
		{name: "one clean frame", stream: frame, wantFrames: 1},
		{name: "two clean frames", stream: append(append([]byte{}, frame...), frame...), wantFrames: 2},
		{name: "partial header 1 byte", stream: append(append([]byte{}, frame...), frame[0]), wantFrames: 1, wantErr: ErrTruncatedStream},
		{name: "partial header 3 bytes", stream: append(append([]byte{}, frame...), frame[:3]...), wantFrames: 1, wantErr: ErrTruncatedStream},
		{name: "truncated body", stream: append(append([]byte{}, frame...), frame[:len(frame)-5]...), wantFrames: 1, wantErr: ErrTruncatedStream},
		{name: "header only", stream: frame[:4], wantFrames: 0, wantErr: ErrTruncatedStream},
		{name: "absurd length prefix", stream: absurd, wantFrames: 0, wantErr: ErrFrameTooLarge},
		{name: "absurd prefix after clean frame", stream: append(append([]byte{}, frame...), absurd...), wantFrames: 1, wantErr: ErrFrameTooLarge},
		{name: "garbage container", stream: garbage, wantFrames: 0, wantEnc: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			frames := 0
			err := DecodeBulkStream(bytes.NewReader(tc.stream), func(*hybrid.ReCiphertext) error {
				frames++
				return nil
			})
			if frames != tc.wantFrames {
				t.Fatalf("yielded %d frames, want %d (err=%v)", frames, tc.wantFrames, err)
			}
			switch {
			case tc.wantEnc:
				if !errors.Is(err, hybrid.ErrEncoding) {
					t.Fatalf("want hybrid.ErrEncoding, got %v", err)
				}
			case tc.wantErr == nil:
				if err != nil {
					t.Fatalf("want clean EOF, got %v", err)
				}
			default:
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("want %v, got %v", tc.wantErr, err)
				}
				// Truncation and oversize must never be conflated.
				other := ErrFrameTooLarge
				if tc.wantErr == ErrFrameTooLarge {
					other = ErrTruncatedStream
				}
				if errors.Is(err, other) {
					t.Fatalf("error matches both sentinels: %v", err)
				}
			}
		})
	}
}

// wrappedEOFReader serves a fixed stream, then reports end-of-stream as a
// transport error that wraps io.EOF rather than returning the bare
// sentinel — the shape a context-adding reader (fmt.Errorf("...: %w", err))
// produces.
type wrappedEOFReader struct {
	data []byte
}

func (r *wrappedEOFReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, fmt.Errorf("transport closed: %w", io.EOF)
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestDecodeBulkStreamWrappedEOF is the regression test for the former
// `err == io.EOF` comparison at the frame boundary: a wrapped EOF between
// frames is a clean end of stream, while a wrapped EOF mid-header is still
// typed truncation.
func TestDecodeBulkStreamWrappedEOF(t *testing.T) {
	frame := validFrame(t)

	frames := 0
	err := DecodeBulkStream(&wrappedEOFReader{data: append([]byte{}, frame...)}, func(*hybrid.ReCiphertext) error {
		frames++
		return nil
	})
	if err != nil {
		t.Fatalf("wrapped EOF at a frame boundary must read as a clean end of stream, got %v", err)
	}
	if frames != 1 {
		t.Fatalf("yielded %d frames, want 1", frames)
	}

	err = DecodeBulkStream(&wrappedEOFReader{data: frame[:2]}, func(*hybrid.ReCiphertext) error { return nil })
	if !errors.Is(err, ErrTruncatedStream) {
		t.Fatalf("wrapped EOF mid-header must be ErrTruncatedStream, got %v", err)
	}
}

// TestHTTPMidStreamAbortIsTypedTruncation pins the client-facing contract:
// a server that dies after the 200 is committed (here: one complete frame
// plus half of a second, then an aborted connection) surfaces to
// DiscloseCategoryStream as ErrTruncatedStream — distinctly from the clean
// EOF a completed stream produces — with the complete frames delivered.
func TestHTTPMidStreamAbortIsTypedTruncation(t *testing.T) {
	frame := validFrame(t)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/patients/{patient}/categories/{category}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(frame)
		w.Write(frame[:len(frame)/2])
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	frames := 0
	err := NewClient(ts.URL).DiscloseCategoryStream("alice", CategoryEmergency, "bob",
		func(*hybrid.ReCiphertext) error { frames++; return nil })
	if !errors.Is(err, ErrTruncatedStream) {
		t.Fatalf("mid-stream abort: want ErrTruncatedStream, got %v", err)
	}
	if frames != 1 {
		t.Fatalf("delivered %d complete frames before truncation, want 1", frames)
	}
}

// TestDecodeBulkStreamSwitchingTails is a differential check of the bulk
// decoder: a stream whose frames switch grant (a new identity block and
// EncX), switch EncX under the same identities, and switch the identity
// block under the same EncX, decodes exactly as each frame does alone.
func TestDecodeBulkStreamSwitchingTails(t *testing.T) {
	s := newScenario(t)
	ct, err := hybrid.Encrypt(s.alice.Delegator(), []byte("bt O−"), CategoryEmergency, nil)
	if err != nil {
		t.Fatal(err)
	}
	reEncrypt := func(requester string) *hybrid.ReCiphertext {
		rk, err := s.alice.Delegator().Delegate(s.kgc2.Params(), requester, CategoryEmergency, nil)
		if err != nil {
			t.Fatal(err)
		}
		rct, err := hybrid.ReEncrypt(ct, rk)
		if err != nil {
			t.Fatal(err)
		}
		return rct
	}
	bob, eve, bobAgain := reEncrypt(s.bobKey.ID), reEncrypt(s.eveKey.ID), reEncrypt(s.bobKey.ID)
	relabeled := *bob.KEM // bob's EncX under another identity block
	relabeled.DelegateeID = "carol@clinic.example"
	carol := &hybrid.ReCiphertext{KEM: &relabeled, Nonce: bob.Nonce, Payload: bob.Payload}

	run := []*hybrid.ReCiphertext{bob, bob, eve, bob, bobAgain, bobAgain, carol, carol, bob}
	var stream []byte
	var want []*hybrid.ReCiphertext
	for _, rct := range run {
		container := rct.Marshal()
		stream = binary.BigEndian.AppendUint32(stream, uint32(len(container)))
		stream = append(stream, container...)
		alone, err := hybrid.UnmarshalReCiphertext(container)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, alone)
	}
	var got []*hybrid.ReCiphertext
	if err := DecodeBulkStream(bytes.NewReader(stream), func(rct *hybrid.ReCiphertext) error {
		got = append(got, rct)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d frames, want %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) || !bytes.Equal(got[i].Marshal(), run[i].Marshal()) {
			t.Fatalf("frame %d decodes to %+v in the stream, %+v alone", i, got[i].KEM, want[i].KEM)
		}
	}
}

// TestClientDiscloseOversizedIsFrameTooLarge checks that a disclose
// response longer than one frame may be, with or without a declared
// length, fails as ErrFrameTooLarge rather than as a decoding error, and
// that a response of exactly the limit reaches the decoder.
func TestClientDiscloseOversizedIsFrameTooLarge(t *testing.T) {
	for _, tc := range []struct {
		name     string
		size     int
		chunked  bool
		tooLarge bool
	}{
		{"declared over", maxFrameBytes + 1, false, true},
		{"chunked over", maxFrameBytes + 1, true, true},
		{"declared at limit", maxFrameBytes, false, false},
	} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			body := make([]byte, tc.size)
			if tc.chunked {
				w.Write(body[:1])
				w.(http.Flusher).Flush()
				w.Write(body[1:])
				return
			}
			w.Header().Set("Content-Length", fmt.Sprint(len(body)))
			w.Write(body)
		}))
		_, err := NewClient(ts.URL).Disclose("alice/r1", "bob")
		ts.Close()
		if err == nil {
			t.Fatalf("%s: a %d-byte zero response decoded", tc.name, tc.size)
		}
		if errors.Is(err, ErrFrameTooLarge) != tc.tooLarge {
			t.Fatalf("%s: err = %v, ErrFrameTooLarge want %v", tc.name, err, tc.tooLarge)
		}
	}
}
