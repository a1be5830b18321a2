package phr

import "testing"

// sizes reports the number of live index keys — patients and (patient,
// category) pairs; the test hook of the churn-leak regression.
func (x *RecordIndex) sizes() (patients, patientCategories int) {
	for _, p := range x.patients {
		patientCategories += len(p.byCat)
	}
	return len(x.patients), patientCategories
}

// TestRecordIndexDropsEmptiedKeys is the churn-leak regression at the
// index both backends share: emptied patient and (patient, category) keys
// are dropped with their last record, so key counts return to zero after
// add/remove cycles, while a partial removal keeps the keys siblings
// still need.
func TestRecordIndexDropsEmptiedKeys(t *testing.T) {
	var x RecordIndex
	cats := StandardCategories()[:3]
	for cycle := 0; cycle < 3; cycle++ {
		for _, c := range cats {
			x.Add("a-"+string(c), "alice", c)
			x.Add("b-"+string(c), "bob", c)
		}
		x.Add("a-extra", "alice", cats[0])
		if p, pc := x.sizes(); p != 2 || pc != 6 {
			t.Fatalf("cycle %d: live index sizes = (%d, %d), want (2, 6)", cycle, p, pc)
		}
		x.Remove("a-"+string(cats[0]), "alice", cats[0])
		if p, pc := x.sizes(); p != 2 || pc != 6 {
			t.Fatalf("cycle %d: partial removal dropped a sibling key: (%d, %d), want (2, 6)", cycle, p, pc)
		}
		x.Remove("a-extra", "alice", cats[0])
		if _, pc := x.sizes(); pc != 5 {
			t.Fatalf("cycle %d: emptied (alice, %s) key kept: %d keys, want 5", cycle, cats[0], pc)
		}
		for _, c := range cats[1:] {
			x.Remove("a-"+string(c), "alice", c)
		}
		for _, c := range cats {
			x.Remove("b-"+string(c), "bob", c)
		}
		if p, pc := x.sizes(); p != 0 || pc != 0 {
			t.Fatalf("cycle %d: index keys leaked after full removal: (%d, %d)", cycle, p, pc)
		}
	}
}
