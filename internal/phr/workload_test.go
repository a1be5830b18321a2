package phr

import (
	"bytes"
	"sort"
	"testing"
)

// TestGenerateWorkloadDeterministic pins the reproducible-corpus mode:
// two generations from the same seed are byte-identical — same record IDs,
// same plaintext bodies, same *sealed* bytes (nonces and KEM scalars drawn
// from the seeded source), and same installed grants down to the marshaled
// rekeys.
func TestGenerateWorkloadDeterministic(t *testing.T) {
	cfg := DefaultWorkload()
	cfg.Patients = 2
	cfg.RecordsPerPatient = 3
	cfg.GrantsPerPatient = 2
	cfg.InsecureDeterministic = true
	cfg.Seed = 42

	gen := func() *Workload {
		t.Helper()
		w, err := GenerateWorkload(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	a, b := gen(), gen()

	if len(a.Records) != len(b.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		ra, rb := a.Records[i], b.Records[i]
		if ra.ID != rb.ID || ra.PatientID != rb.PatientID || ra.Category != rb.Category {
			t.Fatalf("record %d metadata differs: %+v vs %+v", i, ra, rb)
		}
		if !bytes.Equal(a.Bodies[ra.ID], b.Bodies[rb.ID]) {
			t.Fatalf("record %d plaintext differs", i)
		}
		if !bytes.Equal(ra.Sealed.Marshal(), rb.Sealed.Marshal()) {
			t.Fatalf("record %d sealed bytes differ: corpus is not byte-identical", i)
		}
	}

	if len(a.Grants) != len(b.Grants) {
		t.Fatalf("grant counts differ: %d vs %d", len(a.Grants), len(b.Grants))
	}
	for i := range a.Grants {
		if a.Grants[i] != b.Grants[i] {
			t.Fatalf("grant %d differs: %+v vs %+v", i, a.Grants[i], b.Grants[i])
		}
	}
	// The installed rekeys themselves must match bit for bit.
	ga, gb := marshaledGrants(a), marshaledGrants(b)
	if len(ga) != len(gb) {
		t.Fatalf("installed rekey counts differ: %d vs %d", len(ga), len(gb))
	}
	for i := range ga {
		if !bytes.Equal(ga[i], gb[i]) {
			t.Fatalf("installed rekey %d differs between runs", i)
		}
	}
}

// TestGenerateWorkloadSeedsDiverge is the control: different seeds give
// different corpora even in deterministic mode.
func TestGenerateWorkloadSeedsDiverge(t *testing.T) {
	cfg := DefaultWorkload()
	cfg.Patients = 1
	cfg.RecordsPerPatient = 1
	cfg.GrantsPerPatient = 0
	cfg.InsecureDeterministic = true

	cfg.Seed = 1
	a, err := GenerateWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 2
	b, err := GenerateWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Records[0].Sealed.Marshal(), b.Records[0].Sealed.Marshal()) {
		t.Fatal("different seeds produced identical sealed records")
	}
}

// TestGenerateWorkloadStructureOnlyDeterminism pins the long-standing
// default: without InsecureDeterministic the *structure* (IDs, bodies,
// grant triples) is seed-determined while the cryptography stays
// randomized.
func TestGenerateWorkloadStructureOnlyDeterminism(t *testing.T) {
	cfg := DefaultWorkload()
	cfg.Patients = 1
	cfg.RecordsPerPatient = 2
	cfg.GrantsPerPatient = 1
	cfg.Seed = 9

	a, err := GenerateWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Records {
		if a.Records[i].ID != b.Records[i].ID {
			t.Fatalf("record %d IDs differ", i)
		}
		if !bytes.Equal(a.Bodies[a.Records[i].ID], b.Bodies[b.Records[i].ID]) {
			t.Fatalf("record %d bodies differ", i)
		}
		if bytes.Equal(a.Records[i].Sealed.Marshal(), b.Records[i].Sealed.Marshal()) {
			t.Fatalf("record %d sealed bytes identical without InsecureDeterministic", i)
		}
	}
}

// marshaledGrants collects every installed rekey across the service's
// proxies, marshaled and sorted for stable comparison.
func marshaledGrants(w *Workload) [][]byte {
	var out [][]byte
	for _, p := range w.Service.Proxies() {
		for _, rk := range p.CompromisedGrants() {
			out = append(out, rk.Marshal())
		}
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i], out[j]) < 0 })
	return out
}
