package phr

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"typepre/internal/ibe"
)

// TestFederationChurn is cross-KGC delegation (the root package's
// Example_multidomain story at workload scale) under grant/revoke churn
// with concurrent disclosures. A third KGC's params reach the patients
// only as Params.Marshal bytes. The churned pair flaps between granted
// and denied; a steady grant from another domain must never be
// disturbed. CI runs it under -race.
func TestFederationChurn(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			if seed > 1 && testing.Short() {
				t.Skip("another generated corpus; seed 1 covers the story")
			}
			t.Parallel()
			federationChurn(t, seed)
		})
	}
}

func federationChurn(t *testing.T, seed int64) {
	// Small but real: every combination of {writer flap, racing reader,
	// steady reader} still interleaves, and the test stays cheap enough
	// to run under -race.
	const (
		patients = 2
		records  = 2
		rounds   = 3
	)
	cfg := DefaultWorkload()
	cfg.Seed = seed
	cfg.Patients = patients
	cfg.Requesters = 2
	cfg.Categories = []Category{CategoryEmergency}
	cfg.RecordsPerPatient = records
	cfg.GrantsPerPatient = 0
	w, err := GenerateWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	steady := w.Requesters["clinician-000@clinic.example"] // a KGC2 clinician
	if steady == nil {
		t.Fatal("workload requester naming changed")
	}
	proxy, err := w.Service.ProxyFor(CategoryEmergency)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][][]byte{}
	for _, p := range w.Patients {
		for _, rec := range mustList(t, w.Service.Store, p.ID(), CategoryEmergency) {
			want[p.ID()] = append(want[p.ID()], w.Bodies[rec.ID])
		}
	}
	read := func(p *Patient, requester *ibe.PrivateKey) error {
		got, err := readCategory(w.Service, p.ID(), CategoryEmergency, requester)
		if err != nil {
			return err
		}
		return sameBodies(got, want[p.ID()])
	}

	// Domain 3: an unrelated KGC whose params reach the patients only in
	// serialized form.
	kgc3, err := ibe.Setup("phr-kgc3", nil)
	if err != nil {
		t.Fatal(err)
	}
	imported, err := ibe.UnmarshalParams(kgc3.Params().Marshal())
	if err != nil {
		t.Fatalf("params wire round-trip: %v", err)
	}
	specialist := kgc3.Extract("specialist-007@kgc3.example")

	// Federate: the cross-domain grant goes through the wire-imported
	// params, not the live KGC3 object.
	for _, p := range w.Patients {
		if err := grantAt(w.Service, p, w.KGC2.Params(), steady.ID, CategoryEmergency); err != nil {
			t.Fatal(err)
		}
		if err := p.Grant(proxy, imported, specialist.ID, CategoryEmergency, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range w.Patients {
		if err := read(p, specialist); err != nil {
			t.Fatalf("specialist read of %s: %v", p.ID(), err)
		}
	}
	if n := grantCount(proxy); n != 2*patients {
		t.Fatalf("grant count = %d, want %d", n, 2*patients)
	}

	// Churn. One writer per patient flaps the specialist's grant: revoke,
	// a read that must be denied, re-grant, a read that must succeed. The
	// outcomes are deterministic because the writer owns the pair's grant.
	var (
		churnOK, churnDenied atomic.Int64
		writers, readers     sync.WaitGroup
	)
	done := make(chan struct{})
	for _, p := range w.Patients {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < rounds; i++ {
				if err := revoke(p, proxy, specialist.ID, CategoryEmergency); err != nil {
					t.Errorf("revoke round %d: %v", i, err)
					return
				}
				if err := read(p, specialist); !errors.Is(err, ErrNoGrant) {
					t.Errorf("round %d: revoked pair disclosed (err=%v)", i, err)
					return
				}
				churnDenied.Add(1)
				if err := p.Grant(proxy, imported, specialist.ID, CategoryEmergency, nil); err != nil {
					t.Errorf("re-grant round %d: %v", i, err)
					return
				}
				if err := read(p, specialist); err != nil {
					t.Errorf("round %d: fresh grant: %v", i, err)
					return
				}
				churnOK.Add(1)
			}
		}()
	}
	// Racing readers on the churned pair: every attempt either discloses
	// the right plaintexts or is denied with ErrNoGrant, nothing between.
	// Steady readers: the KGC2 clinician's grant is never touched by the
	// churn and must never be denied.
	for _, p := range w.Patients {
		readers.Add(2)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				switch err := read(p, specialist); {
				case errors.Is(err, ErrNoGrant):
					churnDenied.Add(1)
				case err != nil:
					t.Errorf("racing reader on %s: %v", p.ID(), err)
					return
				default:
					churnOK.Add(1)
				}
			}
		}()
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := read(p, steady); err != nil {
					t.Errorf("steady grant on %s disturbed: %v", p.ID(), err)
					return
				}
			}
		}()
	}
	// Writers are the clock: when every flap has run its rounds, stop the
	// readers and drain them.
	writers.Wait()
	close(done)
	readers.Wait()
	if ok, denied := churnOK.Load(), churnDenied.Load(); ok < patients*rounds || denied < patients*rounds {
		t.Fatalf("churn ok=%d denied=%d, want >= %d each", ok, denied, patients*rounds)
	}

	// Settle: every pair discloses, and the audit log stayed consistent.
	for _, p := range w.Patients {
		for _, req := range []*ibe.PrivateKey{steady, specialist} {
			if err := read(p, req); err != nil {
				t.Fatalf("%s for %s after churn: %v", p.ID(), req.ID, err)
			}
		}
	}
	log := proxy.Audit()
	assertGapless(t, log.Tail(0))
	byReq := 0
	for _, id := range []string{steady.ID, specialist.ID} {
		entries := byRequester(log, id)
		assertStrictlyOrdered(t, entries)
		byReq += len(entries)
	}
	if byReq != log.Len() {
		t.Fatalf("ByRequester partitions cover %d of %d entries", byReq, log.Len())
	}
	// At least every writer-forced denial is on record.
	if n := len(denials(log)); n < patients*rounds {
		t.Fatalf("denials = %d, want >= %d", n, patients*rounds)
	}
}
