package phr

import "sort"

// RecordIndex is the secondary index every Backend keeps over its
// records: patient → record IDs in insertion order, and patient →
// category → record IDs in insertion order. Removing a patient's last
// record (or last record of a category) drops the emptied key outright,
// so record churn cannot leak one map key per patient or (patient,
// category) ever seen.
//
// The zero value is an empty index. A RecordIndex is not safe for
// concurrent use: each backend guards its index with its own mutex. The
// slices returned by IDs and IDsIn are the index's own and stay valid
// only while that mutex is held; callers must not modify them.
type RecordIndex struct {
	patients map[string]*patientIndex
}

type patientIndex struct {
	ids   []string
	byCat map[Category][]string
}

// Add appends a record to the patient's and the (patient, category) lists.
func (x *RecordIndex) Add(id, patientID string, c Category) {
	if x.patients == nil {
		x.patients = map[string]*patientIndex{}
	}
	p := x.patients[patientID]
	if p == nil {
		p = &patientIndex{byCat: map[Category][]string{}}
		x.patients[patientID] = p
	}
	p.ids = append(p.ids, id)
	p.byCat[c] = append(p.byCat[c], id)
}

// Remove deletes a record from both lists, dropping emptied keys.
func (x *RecordIndex) Remove(id, patientID string, c Category) {
	p := x.patients[patientID]
	if p == nil {
		return
	}
	if rest := removeID(p.byCat[c], id); len(rest) > 0 {
		p.byCat[c] = rest
	} else {
		delete(p.byCat, c)
	}
	if p.ids = removeID(p.ids, id); len(p.ids) == 0 {
		delete(x.patients, patientID)
	}
}

func removeID(ids []string, id string) []string {
	for i, v := range ids {
		if v == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}

// IDs returns a patient's record IDs in insertion order.
func (x *RecordIndex) IDs(patientID string) []string {
	if p := x.patients[patientID]; p != nil {
		return p.ids
	}
	return nil
}

// IDsIn returns a patient's record IDs of one category in insertion order.
func (x *RecordIndex) IDsIn(patientID string, c Category) []string {
	if p := x.patients[patientID]; p != nil {
		return p.byCat[c]
	}
	return nil
}

// Patients returns the sorted patient IDs with at least one record.
func (x *RecordIndex) Patients() []string {
	out := make([]string, 0, len(x.patients))
	for p := range x.patients {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
