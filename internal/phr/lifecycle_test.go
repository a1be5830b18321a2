package phr

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"typepre/internal/core"
	"typepre/internal/hybrid"
	"typepre/internal/ibe"
)

// Lifecycle tests at the Service level: revocation vs the prepared-grant
// cache and in-flight streams, category key rotation, and break-glass.
// httpapi_drill_test.go tells the same stories over HTTP, and
// federation_test.go runs cross-KGC grant churn under concurrent readers.
// Each story ends by checking that the proxy's audit log is gapless.

// sameBodies reports whether a category read returned want, in
// insertion order. It returns an error rather than failing the test so
// that goroutines can call it.
func sameBodies(got, want [][]byte) error {
	if len(got) != len(want) {
		return fmt.Errorf("disclosed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			return fmt.Errorf("record %d: plaintext mismatch", i)
		}
	}
	return nil
}

// assertBodies checks that requester's read of Alice's category c
// returns want, in insertion order.
func assertBodies(t *testing.T, s *scenario, c Category, requester *ibe.PrivateKey, want [][]byte) {
	t.Helper()
	got, err := readCategory(s.svc, s.alice.ID(), c, requester)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameBodies(got, want); err != nil {
		t.Fatal(err)
	}
}

func TestRevokedGrantNotServedFromPreparedCache(t *testing.T) {
	s := newScenario(t)
	bodies := [][]byte{[]byte("bt O−"), []byte("allergy: latex"), []byte("pacemaker"), []byte("asthma")}
	var ids []string
	for _, b := range bodies {
		rec, err := s.alice.AddRecord(s.svc.Store, CategoryEmergency, b, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, rec.ID)
	}
	if err := grantAt(s.svc, s.alice, s.kgc2.Params(), s.bobKey.ID, CategoryEmergency); err != nil {
		t.Fatal(err)
	}
	proxy, _ := s.svc.ProxyFor(CategoryEmergency)
	if n := grantCount(proxy); n != 1 {
		t.Fatalf("grant count = %d, want 1", n)
	}
	// Warm the prepared grant's c2′ cache on every path.
	for _, id := range ids {
		if _, err := readRecord(s.svc, id, s.bobKey); err != nil {
			t.Fatal(err)
		}
	}
	assertBodies(t, s, CategoryEmergency, s.bobKey, bodies)

	if err := revoke(s.alice, proxy, s.bobKey.ID, CategoryEmergency); err != nil {
		t.Fatal(err)
	}
	if n := grantCount(proxy); n != 0 {
		t.Fatalf("grant count after revoke = %d, want 0", n)
	}
	// The warm cache must be unreachable on every disclosure path.
	if _, err := readRecord(s.svc, ids[0], s.bobKey); !errors.Is(err, ErrNoGrant) {
		t.Fatalf("serial path after revoke: want ErrNoGrant, got %v", err)
	}
	if _, err := readCategory(s.svc, s.alice.ID(), CategoryEmergency, s.bobKey); !errors.Is(err, ErrNoGrant) {
		t.Fatalf("bulk path after revoke: want ErrNoGrant, got %v", err)
	}
	if _, err := breakGlass(s.svc, s.alice.ID(), s.bobKey.ID, "unconscious on arrival"); !errors.Is(err, ErrNoGrant) {
		t.Fatalf("break-glass path after revoke: want ErrNoGrant, got %v", err)
	}
	yields := 0
	err := proxy.DiscloseCategoryStream(s.svc.Store, s.alice.ID(), CategoryEmergency, s.bobKey.ID,
		func([]byte, bool) error { yields++; return nil })
	if !errors.Is(err, ErrNoGrant) || yields != 0 {
		t.Fatalf("stream path after revoke: err=%v yields=%d", err, yields)
	}
	// One denial per refused path.
	if n := len(byOutcome(proxy.Audit(), OutcomeNoGrant)); n != 4 {
		t.Fatalf("no-grant audit entries = %d, want 4", n)
	}
	assertGapless(t, proxy.Audit().Tail(0))
}

// TestReinstallStartsWithEmptyCache checks that revocation drops the
// grant's c2′ cache with it: the same rekey installed again pays a
// pairing for a record the revoked grant had cached.
func TestReinstallStartsWithEmptyCache(t *testing.T) {
	s := newScenario(t)
	rec, err := s.alice.AddRecord(s.svc.Store, CategoryEmergency, []byte("bt O−"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := grantAt(s.svc, s.alice, s.kgc2.Params(), s.bobKey.ID, CategoryEmergency); err != nil {
		t.Fatal(err)
	}
	proxy, _ := s.svc.ProxyFor(CategoryEmergency)
	rk := proxy.CompromisedGrants()[0]
	read := func(wantHits, wantMisses uint64) {
		t.Helper()
		if _, err := readRecord(s.svc, rec.ID, s.bobKey); err != nil {
			t.Fatal(err)
		}
		if hits, misses, _ := proxy.cache.Counts(); hits != wantHits || misses != wantMisses {
			t.Fatalf("hits %d, misses %d; want %d, %d", hits, misses, wantHits, wantMisses)
		}
	}
	read(0, 1)
	read(1, 1)
	if err := proxy.Revoke(rec.PatientID, CategoryEmergency, s.bobKey.ID); err != nil {
		t.Fatal(err)
	}
	if err := proxy.Install(rk); err != nil {
		t.Fatal(err)
	}
	read(1, 2)
	read(2, 2)
}

func TestRevokeKillsInFlightStream(t *testing.T) {
	const records = 4
	s := newScenario(t)
	for i := 0; i < records; i++ {
		if _, err := s.alice.AddRecord(s.svc.Store, CategoryEmergency, []byte(fmt.Sprintf("r%d", i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := grantAt(s.svc, s.alice, s.kgc2.Params(), s.bobKey.ID, CategoryEmergency); err != nil {
		t.Fatal(err)
	}
	proxy, _ := s.svc.ProxyFor(CategoryEmergency)
	if n := grantCount(proxy); n != 1 {
		t.Fatalf("grant count = %d, want 1", n)
	}

	yields := 0
	err := proxy.DiscloseCategoryStream(s.svc.Store, s.alice.ID(), CategoryEmergency, s.bobKey.ID,
		func([]byte, bool) error {
			yields++
			if yields == 1 {
				// The patient revokes while the stream is mid-flight.
				if err := revoke(s.alice, proxy, s.bobKey.ID, CategoryEmergency); err != nil {
					t.Errorf("mid-stream revoke: %v", err)
				}
			}
			return nil
		})
	if !errors.Is(err, ErrNoGrant) {
		t.Fatalf("in-flight stream survived revocation: err=%v", err)
	}
	if yields != 1 {
		t.Fatalf("stream released %d records after revocation, want 1", yields)
	}
	if n := grantCount(proxy); n != 0 {
		t.Fatalf("grant count after revoke = %d, want 0", n)
	}
	// Audit: exactly one granted entry (the delivered record) and one
	// denial for the terminated stream.
	log := proxy.Audit()
	if got := len(byOutcome(log, OutcomeGranted)); got != 1 {
		t.Fatalf("granted audit entries = %d, want 1", got)
	}
	denials := denials(log)
	if len(denials) != 1 || denials[0].Outcome != OutcomeNoGrant {
		t.Fatalf("denials = %+v, want one no-grant entry", denials)
	}
	assertGapless(t, log.Tail(0))
}

func TestReinstallMidStreamAlsoKillsOldStream(t *testing.T) {
	// Re-keying (revoke + fresh grant) mid-stream must not let the old
	// stream keep serving from its snapshot of the retired grant.
	s := newScenario(t)
	for i := 0; i < 3; i++ {
		if _, err := s.alice.AddRecord(s.svc.Store, CategoryEmergency, []byte{byte(i)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := grantAt(s.svc, s.alice, s.kgc2.Params(), s.bobKey.ID, CategoryEmergency); err != nil {
		t.Fatal(err)
	}
	proxy, _ := s.svc.ProxyFor(CategoryEmergency)
	yields := 0
	err := proxy.DiscloseCategoryStream(s.svc.Store, s.alice.ID(), CategoryEmergency, s.bobKey.ID,
		func([]byte, bool) error {
			yields++
			if yields == 1 {
				if err := grantAt(s.svc, s.alice, s.kgc2.Params(), s.bobKey.ID, CategoryEmergency); err != nil {
					t.Errorf("mid-stream re-grant: %v", err)
				}
			}
			return nil
		})
	if !errors.Is(err, ErrNoGrant) || yields != 1 {
		t.Fatalf("old stream survived re-keying: err=%v yields=%d", err, yields)
	}
	// The fresh grant serves normally.
	if _, err := discloseAll(proxy, s.svc.Store, s.alice.ID(), CategoryEmergency, s.bobKey.ID); err != nil {
		t.Fatal(err)
	}
	assertGapless(t, proxy.Audit().Tail(0))
}

func TestRotateTypeKeyLifecycle(t *testing.T) {
	s := newScenario(t)
	want := [][]byte{[]byte("metformin 500mg"), []byte("lisinopril 10mg"), []byte("atorvastatin 20mg")}
	var ids []string
	for _, b := range want {
		rec, err := s.alice.AddRecord(s.svc.Store, CategoryMedication, b, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, rec.ID)
	}
	if err := grantAt(s.svc, s.alice, s.kgc2.Params(), s.bobKey.ID, CategoryMedication); err != nil {
		t.Fatal(err)
	}
	assertBodies(t, s, CategoryMedication, s.bobKey, want)

	n, err := s.alice.RotateTypeKey(s.svc.Store, CategoryMedication, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(want) {
		t.Fatalf("rotated %d records, want %d", n, len(want))
	}
	if got := s.alice.Epoch(CategoryMedication); got != 1 {
		t.Fatalf("epoch = %d, want 1", got)
	}
	// Every stored record is re-sealed under the epoch-1 wire type, still
	// indexed under the logical category.
	wantType := core.VersionedType(core.Type(CategoryMedication), 1)
	recs := mustList(t, s.svc.Store, s.alice.ID(), CategoryMedication)
	if len(recs) != len(want) {
		t.Fatalf("store lists %d records after rotation, want %d", len(recs), len(want))
	}
	for _, rec := range recs {
		if rec.Sealed.KEM.Type != wantType {
			t.Fatalf("record %s sealed as %q, want %q", rec.ID, rec.Sealed.KEM.Type, wantType)
		}
	}
	// The pre-rotation grant is dead on both paths, audited as stale.
	proxy, _ := s.svc.ProxyFor(CategoryMedication)
	if _, err := readRecord(s.svc, ids[0], s.bobKey); !errors.Is(err, ErrStaleGrant) {
		t.Fatalf("serial path on stale grant: want ErrStaleGrant, got %v", err)
	}
	if _, err := discloseAll(proxy, s.svc.Store, s.alice.ID(), CategoryMedication, s.bobKey.ID); !errors.Is(err, ErrStaleGrant) {
		t.Fatalf("bulk path on stale grant: want ErrStaleGrant, got %v", err)
	}
	if got := len(byOutcome(proxy.Audit(), OutcomeStaleGrant)); got != 2 {
		t.Fatalf("stale-grant audit entries = %d, want 2", got)
	}
	// The owner still reads everything.
	for i, id := range ids {
		got, err := readOwn(s.alice, s.svc.Store, id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("owner read of %s mismatch after rotation", id)
		}
	}
	// A fresh grant replaces the stale one and discloses the same
	// plaintexts.
	if err := grantAt(s.svc, s.alice, s.kgc2.Params(), s.bobKey.ID, CategoryMedication); err != nil {
		t.Fatal(err)
	}
	if got := grantCount(proxy); got != 1 {
		t.Fatalf("grant count after re-grant = %d, want 1 (stale grant replaced)", got)
	}
	assertBodies(t, s, CategoryMedication, s.bobKey, want)
	assertGapless(t, proxy.Audit().Tail(0))
}

func TestBreakGlassLifecycle(t *testing.T) {
	s := newScenario(t)
	emergency := [][]byte{[]byte("blood type O−"), []byte("allergy: penicillin")}
	for _, b := range emergency {
		if _, err := s.alice.AddRecord(s.svc.Store, CategoryEmergency, b, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.alice.AddRecord(s.svc.Store, CategoryMedication, []byte("private"), nil); err != nil {
		t.Fatal(err)
	}
	// The responder holds a standing emergency grant — break-glass cannot
	// conjure access that was never delegated.
	if err := grantAt(s.svc, s.alice, s.kgc2.Params(), s.bobKey.ID, CategoryEmergency); err != nil {
		t.Fatal(err)
	}
	proxy, _ := s.svc.ProxyFor(CategoryEmergency)
	if n := grantCount(proxy); n != 1 {
		t.Fatalf("grant count = %d, want 1", n)
	}

	// A reason is mandatory, and its absence leaks nothing.
	if _, err := breakGlass(s.svc, s.alice.ID(), s.bobKey.ID, ""); !errors.Is(err, ErrBreakGlassReason) {
		t.Fatalf("break-glass without reason: want ErrBreakGlassReason, got %v", err)
	}
	if proxy.Audit().Len() != 0 {
		t.Fatal("reason-less break-glass attempt produced audit traffic")
	}

	const reason = "cardiac arrest, ER admission #4711"
	rcts, err := breakGlass(s.svc, s.alice.ID(), s.bobKey.ID, reason)
	if err != nil {
		t.Fatal(err)
	}
	if len(rcts) != len(emergency) {
		t.Fatalf("break-glass disclosed %d records, want %d", len(rcts), len(emergency))
	}
	for i, rct := range rcts {
		got, err := hybrid.DecryptReEncrypted(s.bobKey, rct)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, emergency[i]) {
			t.Fatalf("break-glass record %d mismatch", i)
		}
	}
	// Every released record carries the distinguishable outcome and the
	// reason; none counts as a denial.
	entries := byOutcome(proxy.Audit(), OutcomeBreakGlass)
	if len(entries) != len(emergency) {
		t.Fatalf("break-glass audit entries = %d, want %d", len(entries), len(emergency))
	}
	for _, e := range entries {
		if e.Note != reason {
			t.Fatalf("break-glass entry lost its reason: %+v", e)
		}
	}
	if len(denials(proxy.Audit())) != 0 {
		t.Fatal("break-glass access counted as a denial")
	}
	// Break-glass is emergency-only: the responder still cannot touch
	// other categories, and an unauthorized requester is denied with the
	// reason on record.
	if _, err := readCategory(s.svc, s.alice.ID(), CategoryMedication, s.bobKey); !errors.Is(err, ErrNoGrant) {
		t.Fatalf("break-glass responder read a non-emergency category: %v", err)
	}
	if _, err := breakGlass(s.svc, s.alice.ID(), s.eveKey.ID, reason); !errors.Is(err, ErrNoGrant) {
		t.Fatalf("unauthorized break-glass: want ErrNoGrant, got %v", err)
	}
	denials := denials(proxy.Audit())
	if len(denials) != 1 || denials[0].Outcome != OutcomeNoGrant ||
		denials[0].Requester != s.eveKey.ID || denials[0].Note != reason {
		t.Fatalf("unauthorized break-glass denial = %+v, want no-grant by %s with the reason on record", denials, s.eveKey.ID)
	}
	assertGapless(t, proxy.Audit().Tail(0))
}
