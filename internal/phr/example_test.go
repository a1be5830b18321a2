package phr_test

import (
	"errors"
	"fmt"
	"log"
	"maps"
	"slices"

	"typepre/internal/hybrid"
	"typepre/internal/ibe"
	"typepre/internal/phr"
)

// readCategory streams every record of (patient, category) through proxy,
// as phrserver's bulk-disclosure route does, and decrypts each frame with
// the requester's key.
func readCategory(store phr.Backend, proxy *phr.Proxy, patientID string, c phr.Category, requester *ibe.PrivateKey) ([][]byte, error) {
	var out [][]byte
	err := proxy.DiscloseCategoryStream(store, patientID, c, requester.ID, func(frame []byte, _ bool) error {
		rct, err := hybrid.UnmarshalReCiphertext(frame[hybrid.FrameHeader:])
		if err != nil {
			return err
		}
		body, err := hybrid.DecryptReEncrypted(requester, rct)
		out = append(out, body)
		return err
	})
	return out, err
}

// ExampleService replays the paper's Section 5 scenario end to end: Alice
// sorts her Personal Health Record into three privacy levels (illness
// history, food statistics, emergency data) and stores it encrypted; one
// proxy per category holds her per-category re-encryption keys. Her GP
// reads the illness history and her dietician is refused it. Traveling in
// the US, she stands up a local emergency proxy so an ER doctor reads her
// emergency records and nothing else. Corrupting that proxy exposes only
// those records, where a type-less PRE deployment would expose them all,
// and every disclosure left an audit trail.
func ExampleService() {
	kgc1, err := ibe.Setup("nl-health-kgc", nil)
	if err != nil {
		log.Fatal(err)
	}
	kgc2, err := ibe.Setup("clinician-kgc", nil)
	if err != nil {
		log.Fatal(err)
	}
	svc := phr.NewService(phr.StandardCategories(), phr.NewStore())
	alice := phr.NewPatient(kgc1, "alice@phr.example")

	// 1. Alice categorizes and stores her PHR.
	for _, r := range []struct {
		cat  phr.Category
		body string
	}{
		{phr.CategoryIllnessHistory, "2006: appendectomy; 2008: bronchitis"},
		{phr.CategoryIllnessHistory, "family history: type-2 diabetes (father)"},
		{phr.CategoryFoodStatistics, "week 23: 2100 kcal/day average"},
		{phr.CategoryEmergency, "blood type O−; allergies: penicillin"},
		{phr.CategoryEmergency, "emergency contact: +31-6-0000-0000"},
	} {
		if _, err := alice.AddRecord(svc.Store, r.cat, []byte(r.body), nil); err != nil {
			log.Fatal(err)
		}
	}
	records, err := svc.Store.ListByPatient(alice.ID())
	if err != nil {
		log.Fatal(err)
	}
	categories := map[phr.Category]bool{}
	for _, r := range records {
		categories[r.Category] = true
	}
	fmt.Printf("Alice stores %d encrypted records in %d categories\n", svc.Store.Count(), len(categories))

	// 2. Her GP gets the illness history and her dietician the food
	// statistics: one proxy and one rekey per category.
	illnessProxy, err := svc.ProxyFor(phr.CategoryIllnessHistory)
	if err != nil {
		log.Fatal(err)
	}
	foodProxy, err := svc.ProxyFor(phr.CategoryFoodStatistics)
	if err != nil {
		log.Fatal(err)
	}
	gpKey := kgc2.Extract("gp@practice.example")
	dieticianKey := kgc2.Extract("dietician@wellness.example")
	if err := alice.Grant(illnessProxy, kgc2.Params(), gpKey.ID, phr.CategoryIllnessHistory, nil); err != nil {
		log.Fatal(err)
	}
	if err := alice.Grant(foodProxy, kgc2.Params(), dieticianKey.ID, phr.CategoryFoodStatistics, nil); err != nil {
		log.Fatal(err)
	}
	bodies, err := readCategory(svc.Store, illnessProxy, alice.ID(), phr.CategoryIllnessHistory, gpKey)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("GP reads %d illness-history records; first: %q\n", len(bodies), bodies[0])
	_, err = readCategory(svc.Store, illnessProxy, alice.ID(), phr.CategoryIllnessHistory, dieticianKey)
	fmt.Println("dietician denied illness history:", errors.Is(err, phr.ErrNoGrant))

	// 3. Alice travels to the US and stands up a local emergency proxy
	// over the same store.
	usProxy := phr.NewProxy("proxy-us-east")
	erKey := kgc2.Extract("er-doc@us-hospital.example")
	if err := alice.Grant(usProxy, kgc2.Params(), erKey.ID, phr.CategoryEmergency, nil); err != nil {
		log.Fatal(err)
	}
	emergencies, err := readCategory(svc.Store, usProxy, alice.ID(), phr.CategoryEmergency, erKey)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("US ER doctor reads %d emergency records\n", len(emergencies))

	// 4. Blast radius: even if the US proxy is corrupted and colludes with
	// the ER doctor, only the emergency records are exposed.
	typeRep := phr.SimulateTypePREBreach(svc.Store, []*phr.Proxy{usProxy})
	tradRep := phr.SimulateTraditionalPREBreach(svc.Store, []*phr.Proxy{usProxy})
	fmt.Printf("US proxy corrupted: type-PRE exposes %d/%d records (%.0f%%), traditional PRE %d/%d (%.0f%%)\n",
		typeRep.ExposedRecords, typeRep.TotalRecords, 100*typeRep.Fraction(),
		tradRep.ExposedRecords, tradRep.TotalRecords, 100*tradRep.Fraction())

	// 5. Every disclosure above left an audit trail.
	proxies := svc.Proxies()
	proxies[phr.CategoryEmergency] = usProxy
	for _, c := range slices.Sorted(maps.Keys(proxies)) {
		if a := proxies[c].Audit(); a.Len() > 0 {
			denials := 0
			for _, e := range a.Tail(0) {
				if e.Outcome != phr.OutcomeGranted {
					denials++
				}
			}
			fmt.Printf("audit[%s @ %s]: %d entries, %d denials\n",
				c, proxies[c].Name(), a.Len(), denials)
		}
	}
	// Output:
	// Alice stores 5 encrypted records in 3 categories
	// GP reads 2 illness-history records; first: "2006: appendectomy; 2008: bronchitis"
	// dietician denied illness history: true
	// US ER doctor reads 2 emergency records
	// US proxy corrupted: type-PRE exposes 2/5 records (40%), traditional PRE 5/5 (100%)
	// audit[emergency @ proxy-us-east]: 2 entries, 0 denials
	// audit[illness-history @ proxy-illness-history]: 3 entries, 1 denials
}
