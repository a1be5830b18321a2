package phr

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"typepre/internal/core"
	"typepre/internal/hybrid"
	"typepre/internal/ibe"
)

// scenario is the §5 cast: Alice the patient, Bob the doctor, Eve a nosy
// outsider, all wired into a per-category service.
type scenario struct {
	kgc1, kgc2 *ibe.KGC
	svc        *Service
	alice      *Patient
	bobKey     *ibe.PrivateKey
	eveKey     *ibe.PrivateKey
}

func newScenario(t *testing.T) *scenario {
	t.Helper()
	kgc1, err := ibe.Setup("phr-kgc1", nil)
	if err != nil {
		t.Fatal(err)
	}
	kgc2, err := ibe.Setup("phr-kgc2", nil)
	if err != nil {
		t.Fatal(err)
	}
	return &scenario{
		kgc1:   kgc1,
		kgc2:   kgc2,
		svc:    NewService(StandardCategories()),
		alice:  NewPatient(kgc1, "alice@phr.example"),
		bobKey: kgc2.Extract("dr-bob@clinic.example"),
		eveKey: kgc2.Extract("eve@outside.example"),
	}
}

func TestPatientOwnRoundTrip(t *testing.T) {
	s := newScenario(t)
	body := []byte("2008-03-14: bronchitis, prescribed amoxicillin")
	rec, err := s.alice.AddRecord(s.svc.Store, CategoryIllnessHistory, body, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.alice.ReadOwn(s.svc.Store, rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, body) {
		t.Fatal("patient cannot read own record")
	}
}

func TestDisclosureFlow(t *testing.T) {
	s := newScenario(t)
	body := []byte("allergy: penicillin")
	rec, err := s.alice.AddRecord(s.svc.Store, CategoryEmergency, body, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.svc.Grant(s.alice, s.kgc2.Params(), "dr-bob@clinic.example", CategoryEmergency); err != nil {
		t.Fatal(err)
	}
	got, err := s.svc.Read(rec.ID, s.bobKey)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, body) {
		t.Fatal("granted doctor cannot read the record")
	}
}

func TestNoGrantDenied(t *testing.T) {
	s := newScenario(t)
	rec, err := s.alice.AddRecord(s.svc.Store, CategoryIllnessHistory, []byte("private"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.svc.Read(rec.ID, s.bobKey); !errors.Is(err, ErrNoGrant) {
		t.Fatalf("want ErrNoGrant, got %v", err)
	}
	// Denial must be audited.
	proxy, _ := s.svc.ProxyFor(CategoryIllnessHistory)
	denials := proxy.Audit().Denials()
	if len(denials) != 1 || denials[0].Outcome != OutcomeNoGrant {
		t.Fatalf("expected one no-grant audit entry, got %+v", denials)
	}
}

func TestGrantIsCategoryScoped(t *testing.T) {
	s := newScenario(t)
	recIll, _ := s.alice.AddRecord(s.svc.Store, CategoryIllnessHistory, []byte("illness"), nil)
	recFood, _ := s.alice.AddRecord(s.svc.Store, CategoryFoodStatistics, []byte("food"), nil)

	if err := s.svc.Grant(s.alice, s.kgc2.Params(), "dr-bob@clinic.example", CategoryFoodStatistics); err != nil {
		t.Fatal(err)
	}
	if got, err := s.svc.Read(recFood.ID, s.bobKey); err != nil || !bytes.Equal(got, []byte("food")) {
		t.Fatalf("granted category unreadable: %v", err)
	}
	if _, err := s.svc.Read(recIll.ID, s.bobKey); !errors.Is(err, ErrNoGrant) {
		t.Fatalf("ungranted category readable: %v", err)
	}
}

func TestGrantIsRequesterScoped(t *testing.T) {
	s := newScenario(t)
	rec, _ := s.alice.AddRecord(s.svc.Store, CategoryEmergency, []byte("bt O−"), nil)
	if err := s.svc.Grant(s.alice, s.kgc2.Params(), "dr-bob@clinic.example", CategoryEmergency); err != nil {
		t.Fatal(err)
	}
	if _, err := s.svc.Read(rec.ID, s.eveKey); !errors.Is(err, ErrNoGrant) {
		t.Fatalf("other requester readable: %v", err)
	}
}

func TestRevocation(t *testing.T) {
	s := newScenario(t)
	rec, _ := s.alice.AddRecord(s.svc.Store, CategoryEmergency, []byte("x"), nil)
	if err := s.svc.Grant(s.alice, s.kgc2.Params(), "dr-bob@clinic.example", CategoryEmergency); err != nil {
		t.Fatal(err)
	}
	if _, err := s.svc.Read(rec.ID, s.bobKey); err != nil {
		t.Fatal(err)
	}
	proxy, _ := s.svc.ProxyFor(CategoryEmergency)
	if err := s.alice.Revoke(proxy, "dr-bob@clinic.example", CategoryEmergency); err != nil {
		t.Fatal(err)
	}
	if _, err := s.svc.Read(rec.ID, s.bobKey); !errors.Is(err, ErrNoGrant) {
		t.Fatalf("revoked grant still effective: %v", err)
	}
	// Revoking twice reports ErrNoGrant.
	if err := s.alice.Revoke(proxy, "dr-bob@clinic.example", CategoryEmergency); !errors.Is(err, ErrNoGrant) {
		t.Fatalf("double revoke: want ErrNoGrant, got %v", err)
	}
}

func TestReadCategoryBulk(t *testing.T) {
	s := newScenario(t)
	want := [][]byte{[]byte("r1"), []byte("r2"), []byte("r3")}
	for _, b := range want {
		if _, err := s.alice.AddRecord(s.svc.Store, CategoryEmergency, b, nil); err != nil {
			t.Fatal(err)
		}
	}
	// One record of a different category must not leak into the bulk read.
	if _, err := s.alice.AddRecord(s.svc.Store, CategoryMedication, []byte("other"), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.svc.Grant(s.alice, s.kgc2.Params(), "dr-bob@clinic.example", CategoryEmergency); err != nil {
		t.Fatal(err)
	}
	got, err := s.svc.ReadCategory("alice@phr.example", CategoryEmergency, s.bobKey)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("bulk read returned %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestStoreIndexes(t *testing.T) {
	s := newScenario(t)
	carol := NewPatient(s.kgc1, "carol@phr.example")
	if _, err := s.alice.AddRecord(s.svc.Store, CategoryIllnessHistory, []byte("a1"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.alice.AddRecord(s.svc.Store, CategoryEmergency, []byte("a2"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := carol.AddRecord(s.svc.Store, CategoryEmergency, []byte("c1"), nil); err != nil {
		t.Fatal(err)
	}

	if n := s.svc.Store.Count(); n != 3 {
		t.Fatalf("Count = %d, want 3", n)
	}
	if recs, err := s.svc.Store.ListByPatient("alice@phr.example"); err != nil || len(recs) != 2 {
		t.Fatalf("alice records = %d (err %v), want 2", len(recs), err)
	}
	if got := s.svc.Store.Patients(); len(got) != 2 || got[0] != "alice@phr.example" {
		t.Fatalf("Patients = %v", got)
	}
	cats := s.svc.Store.Categories("alice@phr.example")
	if len(cats) != 2 {
		t.Fatalf("alice categories = %v", cats)
	}
	recs := mustList(t, s.svc.Store, "alice@phr.example", CategoryEmergency)
	if len(recs) != 1 {
		t.Fatalf("index returned %d records, want 1", len(recs))
	}
}

func TestStoreDeleteAndErrors(t *testing.T) {
	s := newScenario(t)
	rec, _ := s.alice.AddRecord(s.svc.Store, CategoryEmergency, []byte("x"), nil)
	if err := s.svc.Store.Put(rec); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate Put: want ErrDuplicate, got %v", err)
	}
	if err := s.svc.Store.Delete(rec.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.svc.Store.Get(rec.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after Delete: want ErrNotFound, got %v", err)
	}
	if err := s.svc.Store.Delete(rec.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double Delete: want ErrNotFound, got %v", err)
	}
	if recs, err := s.svc.Store.ListByPatient("alice@phr.example"); err != nil || len(recs) != 0 {
		t.Fatalf("index not cleaned after delete: %d records (err %v)", len(recs), err)
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	// The store is the shared substrate; hammer it from goroutines.
	s := newScenario(t)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				rec := &EncryptedRecord{
					ID:        fmt.Sprintf("g%d/r%d", g, i),
					PatientID: fmt.Sprintf("p%d", g%3),
					Category:  CategoryEmergency,
				}
				if err := s.svc.Store.Put(rec); err != nil {
					errs <- err
					return
				}
				if _, err := s.svc.Store.Get(rec.ID); err != nil {
					errs <- err
					return
				}
				if _, err := s.svc.Store.ListByPatient(rec.PatientID); err != nil {
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
	if n := s.svc.Store.Count(); n != 64 {
		t.Fatalf("Count = %d, want 64", n)
	}
}

func TestAuditTrail(t *testing.T) {
	s := newScenario(t)
	rec, _ := s.alice.AddRecord(s.svc.Store, CategoryEmergency, []byte("x"), nil)
	s.svc.Grant(s.alice, s.kgc2.Params(), "dr-bob@clinic.example", CategoryEmergency)
	if _, err := s.svc.Read(rec.ID, s.bobKey); err != nil {
		t.Fatal(err)
	}
	s.svc.Read(rec.ID, s.eveKey) // denied

	proxy, _ := s.svc.ProxyFor(CategoryEmergency)
	log := proxy.Audit()
	if log.Len() != 2 {
		t.Fatalf("audit entries = %d, want 2", log.Len())
	}
	bobEntries := log.ByRequester("dr-bob@clinic.example")
	if len(bobEntries) != 1 || bobEntries[0].Outcome != OutcomeGranted {
		t.Fatalf("bob audit = %+v", bobEntries)
	}
	if len(log.Denials()) != 1 {
		t.Fatalf("denials = %d, want 1", len(log.Denials()))
	}
}

// TestRequestUnknownRecordNotFound pins where an unknown record stops: the
// service's one store read reports ErrNotFound before any proxy sees the
// request, so no proxy audits it.
func TestRequestUnknownRecordNotFound(t *testing.T) {
	s := newScenario(t)
	if _, err := s.alice.AddRecord(s.svc.Store, CategoryEmergency, []byte("x"), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.svc.Grant(s.alice, s.kgc2.Params(), s.bobKey.ID, CategoryEmergency); err != nil {
		t.Fatal(err)
	}
	if _, err := s.svc.Request("no-such-record", s.bobKey.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v, want ErrNotFound", err)
	}
	for c, proxy := range s.svc.Proxies() {
		if n := proxy.Audit().Len(); n != 0 {
			t.Fatalf("proxy for %s audited %d entries for an unknown record", c, n)
		}
	}
}

func TestDynamicProxyDeployment(t *testing.T) {
	// §5: Alice travels to the US and deploys a local emergency proxy.
	s := newScenario(t)
	rec, _ := s.alice.AddRecord(s.svc.Store, CategoryEmergency, []byte("blood type O−"), nil)

	usProxy := NewProxy("proxy-us-east")
	s.svc.DeployProxy(CategoryEmergency, usProxy)
	usDoctor := s.kgc2.Extract("er-doc@us-hospital.example")
	if err := s.svc.Grant(s.alice, s.kgc2.Params(), "er-doc@us-hospital.example", CategoryEmergency); err != nil {
		t.Fatal(err)
	}
	got, err := s.svc.Read(rec.ID, usDoctor)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("blood type O−")) {
		t.Fatal("US emergency disclosure failed")
	}
	if usProxy.GrantCount() != 1 {
		t.Fatal("grant not routed to the deployed proxy")
	}
}

func TestWorkloadGeneration(t *testing.T) {
	w, err := GenerateWorkload(DefaultWorkload())
	if err != nil {
		t.Fatal(err)
	}
	cfg := w.Config
	if len(w.Patients) != cfg.Patients {
		t.Fatalf("patients = %d", len(w.Patients))
	}
	if w.Service.Store.Count() != cfg.Patients*cfg.RecordsPerPatient {
		t.Fatalf("records = %d", w.Service.Store.Count())
	}
	if len(w.Grants) == 0 {
		t.Fatal("no grants generated")
	}
	// Every granted (patient, category, requester) triple must be readable.
	g := w.Grants[0]
	bodies, err := w.Service.ReadCategory(g.PatientID, g.Category, w.Requesters[g.RequesterID])
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bodies {
		if len(b) != cfg.BodySize {
			t.Fatalf("body size = %d, want %d", len(b), cfg.BodySize)
		}
	}
}

func TestBlastRadiusTypeVsTraditional(t *testing.T) {
	// E6 at test scale: corrupting one category proxy exposes at most that
	// category under the paper's scheme, but everything under traditional
	// PRE. Then cryptographically verify the structural simulation.
	w, err := GenerateWorkload(DefaultWorkload())
	if err != nil {
		t.Fatal(err)
	}
	emergency, err := w.Service.ProxyFor(CategoryEmergency)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := []*Proxy{emergency}

	typeRep := SimulateTypePREBreach(w.Service.Store, corrupted)
	tradRep := SimulateTraditionalPREBreach(w.Service.Store, corrupted)

	if typeRep.TotalRecords != w.Service.Store.Count() {
		t.Fatal("total mismatch")
	}
	// Type-PRE never exposes a category the corrupted proxy does not serve.
	for c, n := range typeRep.ExposedByCategory {
		if c != CategoryEmergency && n > 0 {
			t.Fatalf("type-PRE exposed foreign category %s", c)
		}
	}
	if typeRep.ExposedRecords > tradRep.ExposedRecords {
		t.Fatal("type-PRE exposed more than traditional PRE")
	}
	// Cryptographic ground truth.
	exposedOK, isolatedOK := verifyTypePREBreach(w, corrupted)
	if !exposedOK {
		t.Fatal("simulation marked records exposed that the attacker cannot open")
	}
	if !isolatedOK {
		t.Fatal("attacker opened records the simulation marked isolated — Theorem 1 violated")
	}
}

// verifyTypePREBreach cryptographically validates the structural simulation
// on a workload: for every record the simulation marks exposed, the
// attacker (holding the corrupted proxies' rekeys and the colluding
// requesters' keys) actually recovers a working type key and could decrypt;
// for a sample of non-exposed records, recovered keys do NOT open them.
// Returns (exposedVerified, isolatedVerified).
func verifyTypePREBreach(w *Workload, corrupted []*Proxy) (bool, bool) {
	// Recover all type keys available to the attacker, keyed by the sealed
	// wire type they open (category at a specific rotation epoch).
	typeKeys := map[sealedPair]*core.TypeKey{}
	for _, p := range corrupted {
		for _, rk := range p.CompromisedGrants() {
			requesterKey, ok := w.Requesters[rk.DelegateeID]
			if !ok {
				continue
			}
			tk, err := core.RecoverTypeKey(rk, requesterKey)
			if err != nil {
				return false, false
			}
			typeKeys[sealedPair{rk.DelegatorID, rk.Type}] = tk
		}
	}

	exposedOK := true
	isolatedOK := true
	for _, rec := range w.Records {
		key := sealedPair{rec.PatientID, rec.Sealed.KEM.Type}
		tk, exposed := typeKeys[key]
		if exposed {
			// The attacker opens the KEM with the type key and unseals.
			if !attackerCanOpen(tk, rec, w.Bodies[rec.ID]) {
				exposedOK = false
			}
			continue
		}
		// Try every recovered key of the same patient: none may work.
		for pc, wrongTk := range typeKeys {
			if pc.patient != rec.PatientID {
				continue
			}
			if attackerCanOpen(wrongTk, rec, w.Bodies[rec.ID]) {
				isolatedOK = false
			}
		}
	}
	return exposedOK, isolatedOK
}

// attackerCanOpen checks whether a recovered type key opens a sealed
// record: it decrypts the KEM with the type key, derives the DEM key and
// compares the unsealed body.
func attackerCanOpen(tk *core.TypeKey, rec *EncryptedRecord, want []byte) bool {
	k, err := core.DecryptWithTypeKey(tk, rec.Sealed.KEM)
	if err != nil {
		return false
	}
	body, err := hybrid.OpenWithKEMKey(k, rec.Sealed)
	if err != nil {
		return false
	}
	return string(body) == string(want)
}

func TestExposureFractionEmptyStore(t *testing.T) {
	rep := SimulateTypePREBreach(NewStore(), nil)
	if rep.Fraction() != 0 {
		t.Fatal("empty store fraction != 0")
	}
}

func TestServiceNoProxyForUnknownCategory(t *testing.T) {
	s := NewService([]Category{CategoryEmergency})
	if _, err := s.ProxyFor("unknown"); !errors.Is(err, ErrNoProxy) {
		t.Fatalf("want ErrNoProxy, got %v", err)
	}
}

func TestReadOwnWrongPatientRejected(t *testing.T) {
	s := newScenario(t)
	carol := NewPatient(s.kgc1, "carol@phr.example")
	rec, _ := s.alice.AddRecord(s.svc.Store, CategoryEmergency, []byte("x"), nil)
	if _, err := carol.ReadOwn(s.svc.Store, rec.ID); err == nil {
		t.Fatal("another patient read a foreign record")
	}
}

// mustList is the test-side wrapper over Backend list reads: the memory
// backend cannot fail them, so a non-nil error is a test bug.
func mustList(t *testing.T, b Backend, patientID string, c Category) []*EncryptedRecord {
	t.Helper()
	recs, err := b.ListByPatientCategory(patientID, c)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}
