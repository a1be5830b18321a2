package phr

import (
	"bytes"
	"testing"
)

// TestMarshalRecordRoundTrip decodes the storage wire form of real records
// into a fresh store and checks that each decrypts to its original body and
// that the indexes are rebuilt.
func TestMarshalRecordRoundTrip(t *testing.T) {
	s := newScenario(t)
	bodies := map[string][]byte{}
	restored := NewStore()
	for i, cat := range []Category{CategoryIllnessHistory, CategoryEmergency, CategoryMedication} {
		body := []byte{byte(i), byte(i + 1), byte(i + 2)}
		rec, err := s.alice.AddRecord(s.svc.Store, cat, body, nil)
		if err != nil {
			t.Fatal(err)
		}
		bodies[rec.ID] = body

		back, err := UnmarshalRecord(MarshalRecord(nil, rec))
		if err != nil {
			t.Fatalf("record %s: %v", rec.ID, err)
		}
		if back.ID != rec.ID || back.PatientID != rec.PatientID || back.Category != rec.Category ||
			!back.CreatedAt.Equal(rec.CreatedAt) {
			t.Fatalf("record %s: metadata changed in round trip: %+v", rec.ID, back)
		}
		if err := restored.Put(back); err != nil {
			t.Fatal(err)
		}
	}
	for id, want := range bodies {
		got, err := readOwn(s.alice, restored, id)
		if err != nil {
			t.Fatalf("record %s: %v", id, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %s body mismatch after round trip", id)
		}
	}
	if cats, err := categoriesOf(restored, "alice@phr.example"); err != nil || len(cats) != 3 {
		t.Fatal("categories index not rebuilt")
	}
}

// TestMarshalRecordDeterministic checks that encoding the same record twice
// gives the same bytes, and that appending to a non-empty buffer only adds
// that encoding.
func TestMarshalRecordDeterministic(t *testing.T) {
	s := newScenario(t)
	rec, err := s.alice.AddRecord(s.svc.Store, CategoryEmergency, []byte("x"), nil)
	if err != nil {
		t.Fatal(err)
	}
	wire := MarshalRecord(nil, rec)
	if !bytes.Equal(MarshalRecord(nil, rec), wire) {
		t.Fatal("two encodings of the same record differ")
	}
	prefix := []byte("prefix")
	if got := MarshalRecord(append([]byte(nil), prefix...), rec); !bytes.Equal(got, append(prefix, wire...)) {
		t.Fatal("encoding appended to a buffer differs from the standalone encoding")
	}
}

// TestUnmarshalRecordRejectsMalformed feeds garbage, every truncation and
// a trailing byte to UnmarshalRecord.
func TestUnmarshalRecordRejectsMalformed(t *testing.T) {
	if _, err := UnmarshalRecord([]byte("not a record at all")); err == nil {
		t.Fatal("accepted garbage")
	}
	s := newScenario(t)
	rec, err := s.alice.AddRecord(s.svc.Store, CategoryEmergency, []byte("x"), nil)
	if err != nil {
		t.Fatal(err)
	}
	wire := MarshalRecord(nil, rec)
	for n := 0; n < len(wire); n++ {
		if _, err := UnmarshalRecord(wire[:n]); err == nil {
			t.Fatalf("accepted a record truncated to %d of %d bytes", n, len(wire))
		}
	}
	if _, err := UnmarshalRecord(append(wire, 0)); err == nil {
		t.Fatal("accepted a trailing byte")
	}
}
