package phr_test

import (
	"errors"
	"fmt"
	"log"
	"maps"
	"slices"

	"typepre/internal/ibe"
	"typepre/internal/phr"
)

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
	svc := phr.NewService(phr.StandardCategories())
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
	fmt.Printf("Alice stores %d encrypted records in %d categories\n",
		svc.Store.Count(), len(svc.Store.Categories(alice.ID())))

	// 2. Her GP gets the illness history and her dietician the food
	// statistics: one proxy and one rekey per category.
	gpKey := kgc2.Extract("gp@practice.example")
	dieticianKey := kgc2.Extract("dietician@wellness.example")
	if err := svc.Grant(alice, kgc2.Params(), "gp@practice.example", phr.CategoryIllnessHistory); err != nil {
		log.Fatal(err)
	}
	if err := svc.Grant(alice, kgc2.Params(), "dietician@wellness.example", phr.CategoryFoodStatistics); err != nil {
		log.Fatal(err)
	}
	bodies, err := svc.ReadCategory(alice.ID(), phr.CategoryIllnessHistory, gpKey)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("GP reads %d illness-history records; first: %q\n", len(bodies), bodies[0])
	_, err = svc.ReadCategory(alice.ID(), phr.CategoryIllnessHistory, dieticianKey)
	fmt.Println("dietician denied illness history:", errors.Is(err, phr.ErrNoGrant))

	// 3. Alice travels to the US and deploys a local emergency proxy.
	usProxy := phr.NewProxy("proxy-us-east")
	svc.DeployProxy(phr.CategoryEmergency, usProxy)
	erKey := kgc2.Extract("er-doc@us-hospital.example")
	if err := svc.Grant(alice, kgc2.Params(), "er-doc@us-hospital.example", phr.CategoryEmergency); err != nil {
		log.Fatal(err)
	}
	emergencies, err := svc.ReadCategory(alice.ID(), phr.CategoryEmergency, erKey)
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
	for _, c := range slices.Sorted(maps.Keys(proxies)) {
		if a := proxies[c].Audit(); a.Len() > 0 {
			fmt.Printf("audit[%s @ %s]: %d entries, %d denials\n",
				c, proxies[c].Name(), a.Len(), len(a.Denials()))
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
