package phr

import (
	"fmt"
	"io"
	"math/rand"

	"typepre/internal/ibe"
)

// WorkloadConfig parameterizes the synthetic PHR corpus. Real PHR data is
// not available (and would be unusable in a public repository); this
// generator reproduces the *structure* of the §5 scenario: patients with
// records spread over privacy categories, and clinicians granted access to
// subsets of those categories. The substitution is documented in the
// README's "Experiments" section.
type WorkloadConfig struct {
	Seed              int64
	Patients          int
	Requesters        int
	Categories        []Category
	RecordsPerPatient int
	BodySize          int
	// GrantsPerPatient is the number of (category, requester) grants each
	// patient installs, sampled uniformly.
	GrantsPerPatient int
	// InsecureDeterministic drives *all* randomness — KGC master keys, KEM
	// scalars, AES-GCM nonces — from the workload's seeded source instead
	// of crypto/rand, making the generated corpus byte-identical across
	// runs with the same seed. Strictly for reproducible tests and
	// benchmarks: a corpus generated this way has predictable keys and
	// must never hold real data.
	InsecureDeterministic bool
	// Backend, when non-nil, is the storage layer the generated service
	// writes into (default: a fresh in-memory backend). Lets harnesses
	// benchmark the same corpus against memory and disk stores.
	Backend Backend
}

// DefaultWorkload matches the paper's three-category example at a small,
// test-friendly scale.
func DefaultWorkload() WorkloadConfig {
	return WorkloadConfig{
		Seed:              1,
		Patients:          3,
		Requesters:        3,
		Categories:        []Category{CategoryIllnessHistory, CategoryFoodStatistics, CategoryEmergency},
		RecordsPerPatient: 4,
		BodySize:          256,
		GrantsPerPatient:  2,
	}
}

// BulkFixture is the single-patient bulk-disclosure corpus shared by the
// bulk-disclosure tests and BenchmarkDiscloseCategory (E9): n emergency
// records for one patient, one requester, one installed grant.
type BulkFixture struct {
	*Workload
	Proxy       *Proxy
	PatientID   string
	RequesterID string
}

// NewBulkFixture materializes the corpus. Callers measuring the warm
// serving path should run one disclosure first to populate the installed
// grant's c2′ cache.
//
// phrlint:root the fixture of README E9 (BenchmarkDiscloseCategory)
func NewBulkFixture(records int) (*BulkFixture, error) {
	cfg := DefaultWorkload()
	cfg.Patients = 1
	cfg.Requesters = 1
	cfg.Categories = []Category{CategoryEmergency}
	cfg.RecordsPerPatient = records
	cfg.GrantsPerPatient = 1
	w, err := GenerateWorkload(cfg)
	if err != nil {
		return nil, err
	}
	if len(w.Grants) != 1 {
		return nil, fmt.Errorf("phr: bulk fixture installed %d grants, want 1", len(w.Grants))
	}
	proxy, err := w.Service.ProxyFor(CategoryEmergency)
	if err != nil {
		return nil, err
	}
	return &BulkFixture{
		Workload:    w,
		Proxy:       proxy,
		PatientID:   w.Patients[0].ID(),
		RequesterID: w.Grants[0].RequesterID,
	}, nil
}

// Grant names one installed delegation in a generated workload.
type Grant struct {
	PatientID   string
	Category    Category
	RequesterID string
}

// Workload is a fully materialized synthetic deployment.
type Workload struct {
	Config     WorkloadConfig
	KGC1, KGC2 *ibe.KGC
	Service    *Service
	Patients   []*Patient
	Requesters map[string]*ibe.PrivateKey
	Records    []*EncryptedRecord
	Grants     []Grant
	// Bodies holds the plaintext of every record for verification.
	Bodies map[string][]byte
}

// GenerateWorkload builds the corpus: KGCs, patients, requesters, records,
// and grants, with deterministic structure given the seed (the cryptography
// itself uses crypto/rand and is necessarily randomized unless
// InsecureDeterministic is set).
func GenerateWorkload(cfg WorkloadConfig) (*Workload, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	// cryptoRNG is what the key-generation and encryption paths draw from:
	// crypto/rand normally, the seeded source in reproducible-corpus mode.
	var cryptoRNG io.Reader
	if cfg.InsecureDeterministic {
		cryptoRNG = rng
	}
	kgc1, err := ibe.Setup("phr-kgc1", cryptoRNG)
	if err != nil {
		return nil, err
	}
	kgc2, err := ibe.Setup("phr-kgc2", cryptoRNG)
	if err != nil {
		return nil, err
	}
	backend := cfg.Backend
	if backend == nil {
		backend = NewStore()
	}
	w := &Workload{
		Config:     cfg,
		KGC1:       kgc1,
		KGC2:       kgc2,
		Service:    NewService(cfg.Categories, backend),
		Requesters: map[string]*ibe.PrivateKey{},
		Bodies:     map[string][]byte{},
	}

	for i := 0; i < cfg.Requesters; i++ {
		id := fmt.Sprintf("clinician-%03d@clinic.example", i)
		w.Requesters[id] = kgc2.Extract(id)
	}
	requesterIDs := make([]string, 0, len(w.Requesters))
	for i := 0; i < cfg.Requesters; i++ {
		requesterIDs = append(requesterIDs, fmt.Sprintf("clinician-%03d@clinic.example", i))
	}

	for i := 0; i < cfg.Patients; i++ {
		p := NewPatient(kgc1, fmt.Sprintf("patient-%03d@phr.example", i))
		w.Patients = append(w.Patients, p)

		for j := 0; j < cfg.RecordsPerPatient; j++ {
			c := cfg.Categories[rng.Intn(len(cfg.Categories))]
			body := make([]byte, cfg.BodySize)
			rng.Read(body)
			rec, err := p.AddRecord(w.Service.Store, c, body, cryptoRNG)
			if err != nil {
				return nil, err
			}
			w.Records = append(w.Records, rec)
			w.Bodies[rec.ID] = body
		}

		seen := map[grantKey]bool{}
		for j := 0; j < cfg.GrantsPerPatient; j++ {
			c := cfg.Categories[rng.Intn(len(cfg.Categories))]
			req := requesterIDs[rng.Intn(len(requesterIDs))]
			k := grantKey{p.ID(), c, req}
			if seen[k] {
				continue
			}
			seen[k] = true
			proxy, err := w.Service.ProxyFor(c)
			if err != nil {
				return nil, err
			}
			if err := p.Grant(proxy, kgc2.Params(), req, c, cryptoRNG); err != nil {
				return nil, err
			}
			w.Grants = append(w.Grants, Grant{PatientID: p.ID(), Category: c, RequesterID: req})
		}
	}
	return w, nil
}
