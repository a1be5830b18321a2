package phr_test

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"typepre/internal/core"
	"typepre/internal/hybrid"
	"typepre/internal/ibe"
	"typepre/internal/phr"
	"typepre/internal/phr/diskstore"
)

// Backend contract: the index behaviour every phr.Backend must share,
// run against both the memory backend and the on-disk one. Both keep
// their patient and (patient, category) lists in a phr.RecordIndex, and
// Patients/Categories read its keys directly, so a leaked key shows up
// through the public interface.

// contractSealed is one real sealed container, shared by every record:
// the disk backend encodes and validates it, the memory backend treats it
// as opaque.
var contractSealed = sync.OnceValue(func() *hybrid.Ciphertext {
	kgc, err := ibe.Setup("backend-contract", nil)
	if err != nil {
		panic(err)
	}
	ct, err := hybrid.Encrypt(core.NewDelegator(kgc.Extract("alice@phr.example")), []byte("body"), core.Type(phr.CategoryEmergency), nil)
	if err != nil {
		panic(err)
	}
	return ct
})

// forEachBackend runs a contract case against a fresh backend of each kind.
func forEachBackend(t *testing.T, run func(t *testing.T, b phr.Backend)) {
	t.Run("mem", func(t *testing.T) { run(t, phr.NewStore()) })
	t.Run("disk", func(t *testing.T) {
		s, err := diskstore.Open(t.TempDir(), diskstore.Options{Fsync: diskstore.FsyncInterval})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		run(t, s)
	})
}

func put(t *testing.T, b phr.Backend, id, patient string, c phr.Category) {
	t.Helper()
	if err := b.Put(&phr.EncryptedRecord{ID: id, PatientID: patient, Category: c, Sealed: contractSealed()}); err != nil {
		t.Fatal(err)
	}
}

func del(t *testing.T, b phr.Backend, id string) {
	t.Helper()
	if err := b.Delete(id); err != nil {
		t.Fatal(err)
	}
}

// ids lists a patient's record IDs, across all categories or in one.
func ids(t *testing.T, b phr.Backend, patient string, c ...phr.Category) []string {
	t.Helper()
	list := func() ([]*phr.EncryptedRecord, error) { return b.ListByPatient(patient) }
	if len(c) == 1 {
		list = func() ([]*phr.EncryptedRecord, error) { return b.ListByPatientCategory(patient, c[0]) }
	}
	recs, err := list()
	if err != nil {
		t.Fatal(err)
	}
	out := []string{}
	for _, r := range recs {
		out = append(out, r.ID)
	}
	return out
}

// indexKeys counts the live index keys visible through the interface.
func indexKeys(b phr.Backend, patients []string) (patientKeys, patientCategoryKeys int) {
	for _, p := range patients {
		patientCategoryKeys += len(b.Categories(p))
	}
	return len(b.Patients()), patientCategoryKeys
}

// TestStoreDeleteReleasesIndexKeys is the churn-leak regression: emptied
// index keys must be dropped with their last record, so the key counts
// return to zero after put/delete cycles.
func TestStoreDeleteReleasesIndexKeys(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b phr.Backend) {
		patients := []string{"patient-0", "patient-1", "patient-2", "patient-3"}
		for cycle := 0; cycle < 3; cycle++ {
			var all []string
			for p, patient := range patients {
				for r := 0; r < 3; r++ {
					id := fmt.Sprintf("cycle%d/patient%d/rec%d", cycle, p, r)
					put(t, b, id, patient, phr.StandardCategories()[r])
					all = append(all, id)
				}
			}
			if pk, pck := indexKeys(b, patients); pk != 4 || pck != 12 {
				t.Fatalf("cycle %d: live index keys = (%d, %d), want (4, 12)", cycle, pk, pck)
			}
			for _, id := range all {
				del(t, b, id)
			}
			if pk, pck := indexKeys(b, patients); pk != 0 || pck != 0 {
				t.Fatalf("cycle %d: index keys leaked after full delete: (%d, %d)", cycle, pk, pck)
			}
			if b.Count() != 0 {
				t.Fatalf("cycle %d: %d records remain", cycle, b.Count())
			}
		}
	})
}

// TestStoreDeletePartialKeepsSiblingKeys checks that deleting one record
// does not drop an index key other records still need.
func TestStoreDeletePartialKeepsSiblingKeys(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b phr.Backend) {
		put(t, b, "r1", "alice", phr.CategoryEmergency)
		put(t, b, "r2", "alice", phr.CategoryEmergency)
		put(t, b, "r3", "alice", phr.CategoryMedication)
		del(t, b, "r1")
		if got := ids(t, b, "alice", phr.CategoryEmergency); !reflect.DeepEqual(got, []string{"r2"}) {
			t.Fatalf("emergency index after partial delete = %v", got)
		}
		if pk, pck := indexKeys(b, []string{"alice"}); pk != 1 || pck != 2 {
			t.Fatalf("index keys = (%d, %d), want (1, 2)", pk, pck)
		}
		del(t, b, "r2")
		if got := b.Categories("alice"); !reflect.DeepEqual(got, []phr.Category{phr.CategoryMedication}) {
			t.Fatalf("emptied (alice, emergency) key not dropped: categories = %v", got)
		}
		if err := b.Delete("nope"); !errors.Is(err, phr.ErrNotFound) {
			t.Fatalf("got %v, want ErrNotFound", err)
		}
	})
}

// TestBackendInsertionOrderAfterDelete checks that deletes close gaps
// without reordering, and that a later put — even one reusing a deleted
// ID — lands at the end of both lists.
func TestBackendInsertionOrderAfterDelete(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b phr.Backend) {
		for i := 1; i <= 5; i++ {
			c := phr.CategoryEmergency
			if i%2 == 0 {
				c = phr.CategoryMedication
			}
			put(t, b, fmt.Sprintf("r%d", i), "alice", c)
		}
		del(t, b, "r2")
		del(t, b, "r3")
		put(t, b, "r6", "alice", phr.CategoryEmergency)
		put(t, b, "r2", "alice", phr.CategoryEmergency)
		for _, tc := range []struct {
			got, want []string
		}{
			{ids(t, b, "alice"), []string{"r1", "r4", "r5", "r6", "r2"}},
			{ids(t, b, "alice", phr.CategoryEmergency), []string{"r1", "r5", "r6", "r2"}},
			{ids(t, b, "alice", phr.CategoryMedication), []string{"r4"}},
		} {
			if !reflect.DeepEqual(tc.got, tc.want) {
				t.Fatalf("order = %v, want %v", tc.got, tc.want)
			}
		}
		if recs, err := b.ListByPatient("alice"); err != nil || len(recs) != 5 {
			t.Fatalf("ListByPatient = %d records (err %v), want 5", len(recs), err)
		}
	})
}

// TestBackendPatientsAndCategories checks the two key listings: sorted,
// distinct, and scoped to one patient.
func TestBackendPatientsAndCategories(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b phr.Backend) {
		if got := b.Patients(); len(got) != 0 {
			t.Fatalf("empty store lists patients %v", got)
		}
		put(t, b, "c1", "carol", phr.CategoryVaccination)
		put(t, b, "a1", "alice", phr.CategoryMedication)
		put(t, b, "a2", "alice", phr.CategoryEmergency)
		put(t, b, "a3", "alice", phr.CategoryMedication)
		put(t, b, "b1", "bob", phr.CategoryLabResults)
		if got, want := b.Patients(), []string{"alice", "bob", "carol"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("Patients = %v, want %v", got, want)
		}
		if got, want := b.Categories("alice"), []phr.Category{phr.CategoryEmergency, phr.CategoryMedication}; !reflect.DeepEqual(got, want) {
			t.Fatalf("Categories(alice) = %v, want %v", got, want)
		}
		if got := b.Categories("nobody"); len(got) != 0 {
			t.Fatalf("Categories(nobody) = %v, want none", got)
		}
		del(t, b, "b1")
		if got, want := b.Patients(), []string{"alice", "carol"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("Patients after deleting bob's last record = %v, want %v", got, want)
		}
	})
}

// TestBackendReadsAfterCloseFail pins the Close half of the contract on
// the read side: once closed, Get and both List methods return
// ErrStorage, never the records the backend held.
func TestBackendReadsAfterCloseFail(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b phr.Backend) {
		put(t, b, "a1", "alice", phr.CategoryEmergency)
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		if r, err := b.Get("a1"); !errors.Is(err, phr.ErrStorage) {
			t.Errorf("Get after Close = %v, %v; want ErrStorage", r, err)
		}
		if recs, err := b.ListByPatient("alice"); !errors.Is(err, phr.ErrStorage) {
			t.Errorf("ListByPatient after Close = %d records, %v; want ErrStorage", len(recs), err)
		}
		if recs, err := b.ListByPatientCategory("alice", phr.CategoryEmergency); !errors.Is(err, phr.ErrStorage) {
			t.Errorf("ListByPatientCategory after Close = %d records, %v; want ErrStorage", len(recs), err)
		}
	})
}
