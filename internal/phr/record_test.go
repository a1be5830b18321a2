package phr

import (
	"bytes"
	"testing"

	"typepre/internal/ibe"
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

		back, err := UnmarshalTrustedRecord(MarshalRecord(nil, rec))
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
// a trailing byte to UnmarshalTrustedRecord and to RecordRoute, which
// replay runs on every entry.
func TestUnmarshalRecordRejectsMalformed(t *testing.T) {
	decoders := map[string]func([]byte) error{
		"UnmarshalTrustedRecord": func(b []byte) error { _, err := UnmarshalTrustedRecord(b); return err },
		"RecordRoute":            func(b []byte) error { _, _, _, err := RecordRoute(b); return err },
	}
	s := newScenario(t)
	rec, err := s.alice.AddRecord(s.svc.Store, CategoryEmergency, []byte("x"), nil)
	if err != nil {
		t.Fatal(err)
	}
	wire := MarshalRecord(nil, rec)
	for name, decode := range decoders {
		if err := decode([]byte("not a record at all")); err == nil {
			t.Fatalf("%s accepted garbage", name)
		}
		for n := 0; n < len(wire); n++ {
			if err := decode(wire[:n]); err == nil {
				t.Fatalf("%s accepted a record truncated to %d of %d bytes", name, n, len(wire))
			}
		}
		if err := decode(append(wire, 0)); err == nil {
			t.Fatalf("%s accepted a trailing byte", name)
		}
	}
	id, patient, c, err := RecordRoute(wire)
	if err != nil || id != rec.ID || patient != rec.PatientID || c != rec.Category {
		t.Fatalf("RecordRoute = %q %q %q %v, want %q %q %q", id, patient, c, err, rec.ID, rec.PatientID, rec.Category)
	}
}

// FuzzUnmarshalRecord runs the disk backend's payload decoder over
// arbitrary bytes: it must not panic, and whatever it accepts must
// re-encode to the same bytes, also when the sealed ciphertext is encoded
// from its decoded fields rather than written back as the bytes it kept.
func FuzzUnmarshalRecord(f *testing.F) {
	kgc, err := ibe.Setup("recordfuzz-kgc", nil)
	if err != nil {
		f.Fatal(err)
	}
	store := NewStore()
	rec, err := NewPatient(kgc, "alice@recordfuzz").AddRecord(store, CategoryEmergency, []byte("body"), nil)
	if err != nil {
		f.Fatal(err)
	}
	valid := MarshalRecord(nil, rec)
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7C})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := UnmarshalTrustedRecord(data)
		if err != nil {
			return
		}
		if out := MarshalRecord(nil, rec); !bytes.Equal(out, data) {
			t.Fatalf("accepted %x but re-encodes it as %x", data, out)
		}
		rec.Sealed = rec.Sealed.WithoutEncoding()
		if out := MarshalRecord(nil, rec); !bytes.Equal(out, data) {
			t.Fatalf("accepted %x but its fields encode as %x", data, out)
		}
	})
}
