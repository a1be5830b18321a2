package phr

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"
)

// The audit log stores each entry as the bytes appendAuditEntry writes and
// serves them verbatim, so the encoder must match encoding/json exactly.
// json.Marshal is the independent oracle here; TestAuditJSONBodyMatchesMarshal
// only round-trips the log through its own decoder.

// checkEntryJSON fails unless appendAuditEntry(e) equals json.Marshal(e).
func checkEntryJSON(t *testing.T, e AuditEntry) {
	t.Helper()
	want, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if got := appendAuditEntry(nil, &e); !bytes.Equal(got, want) {
		t.Fatalf("encoding diverged from json.Marshal:\n got %s\nwant %s", got, want)
	}
}

func TestAuditEntryJSONEscapes(t *testing.T) {
	var controls []byte
	for c := byte(0); c < 0x20; c++ {
		controls = append(controls, c)
	}
	cases := []struct{ name, s string }{
		{"plain", "dr-bob@clinic.example"},
		{"html", "<script>a && b</script>"},
		{"quote and backslash", `say "hi" \ C:\path\`},
		{"control bytes", string(controls)},
		{"DEL", "a\x7fb"},
		{"line and paragraph separators", "a" + string(rune(0x2028)) + "b" + string(rune(0x2029)) + "c"},
		{"invalid UTF-8", "a" + string([]byte{0xff}) + "b" + string([]byte{0xe2, 0x80}) + "c" + string([]byte{0xc0, 0x80})},
		{"multibyte", "blood type O− · 血型 · 🩸"},
		{"empty", ""},
	}
	stamp := time.Date(2026, 7, 29, 12, 0, 0, 120000000, time.FixedZone("", 2*3600))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := AuditEntry{Seq: 42, Time: stamp, Proxy: tc.s, PatientID: tc.s, RecordID: tc.s,
				Category: Category(tc.s), Requester: tc.s, Outcome: Outcome(tc.s), Note: tc.s}
			checkEntryJSON(t, e)
		})
	}
	// Note is omitted when empty and present otherwise.
	e := AuditEntry{Seq: 1, Time: stamp, Outcome: OutcomeGranted}
	checkEntryJSON(t, e)
	if got := appendAuditEntry(nil, &e); bytes.Contains(got, []byte(`"Note"`)) {
		t.Fatalf("empty Note encoded: %s", got)
	}
	e.Note = "ambulance"
	checkEntryJSON(t, e)
	if got := appendAuditEntry(nil, &e); !bytes.HasSuffix(got, []byte(`,"Note":"ambulance"}`)) {
		t.Fatalf("Note missing: %s", got)
	}
	// The stamps Append takes: the local zone, with a monotonic reading.
	checkEntryJSON(t, AuditEntry{Seq: 1, Time: time.Now()})
}

func FuzzAuditEntryJSON(f *testing.F) {
	f.Add(uint64(1), int64(1785326400), int64(0), int32(0),
		"proxy-emergency", "alice@phr.example", "alice/r1", "emergency", "dr-bob@clinic.example", "granted", "")
	f.Add(uint64(1<<63), int64(-62135596800), int64(999999999), int32(-(23*3600 + 59*60)),
		"<p>", `"\`, "\x00\x1f\t\n", "medication#e1", "a\xffb", "break-glass", "why & <how>")
	f.Add(uint64(0), int64(253402300799), int64(1), int32(-(5*3600 + 45*60 + 30)),
		"", "", "", "", "", "", "x"+string(rune(0x2028))+string(rune(0x2029)))
	f.Fuzz(func(t *testing.T, seq uint64, sec, nsec int64, zone int32,
		proxy, patient, record, category, requester, outcome, note string) {
		e := AuditEntry{
			Seq: seq, Time: time.Unix(sec, nsec).In(time.FixedZone("", int(zone))),
			Proxy: proxy, PatientID: patient, RecordID: record, Category: Category(category),
			Requester: requester, Outcome: Outcome(outcome), Note: note,
		}
		want, err := json.Marshal(e)
		if err != nil {
			// A year outside [0, 9999] or a zone offset of 24 hours or
			// more: MarshalJSON rejects it, and Append never stamps one.
			t.Skip()
		}
		if got := appendAuditEntry(nil, &e); !bytes.Equal(got, want) {
			t.Fatalf("encoding diverged from json.Marshal:\n got %s\nwant %s", got, want)
		}
	})
}

// TestAuditTimeNeverDecreases steps the log's clock backwards: each
// stamp is clamped to its predecessor, and a Time set by the caller is
// overwritten.
func TestAuditTimeNeverDecreases(t *testing.T) {
	t0 := time.Date(2026, 7, 29, 12, 0, 0, 0, time.UTC)
	clock := []time.Time{t0, t0.Add(-time.Hour), t0.Add(time.Second), t0.Add(-time.Minute), t0.Add(2 * time.Second)}
	want := []time.Time{t0, t0, t0.Add(time.Second), t0.Add(time.Second), t0.Add(2 * time.Second)}
	log := NewAuditLog()
	tick := 0
	log.now = func() time.Time { tick++; return clock[tick-1] }
	for range clock {
		log.Append(AuditEntry{Proxy: "p", Outcome: OutcomeGranted, Time: t0.Add(-48 * time.Hour)})
	}
	entries := log.Tail(0)
	if len(entries) != len(want) {
		t.Fatalf("entries = %d, want %d", len(entries), len(want))
	}
	for i, e := range entries {
		if !e.Time.Equal(want[i]) {
			t.Fatalf("entry %d: Time = %v, want %v", i, e.Time, want[i])
		}
	}
	assertStrictlyOrdered(t, entries)
}

// TestAuditTailJSONIsASnapshot checks every served form against the
// decoded entries and that later appends never modify a served body.
func TestAuditTailJSONIsASnapshot(t *testing.T) {
	log := NewAuditLog()
	if body := log.TailJSON(3); len(body) != 0 {
		t.Fatalf("empty log body = %q", body)
	}
	appendN := func(n int) {
		for i := 0; i < n; i++ {
			log.Append(AuditEntry{Proxy: "p", RecordID: fmt.Sprintf("r%d", log.Len()),
				Requester: "q", Outcome: OutcomeNoGrant, Note: strings.Repeat("n", i%3)})
		}
	}
	appendN(5)
	var served [][]byte
	var copies [][]byte
	for _, n := range []int{0, 1, 3, 5, 9} {
		body := log.TailJSON(n)
		want, err := json.Marshal(log.Tail(n))
		if err != nil {
			t.Fatal(err)
		}
		if got := "[" + string(body) + "]"; got != string(want) {
			t.Fatalf("TailJSON(%d) = %s, want %s", n, got, want)
		}
		served = append(served, body)
		copies = append(copies, bytes.Clone(body))
	}
	appendN(200) // grows the arena, in place and by reallocation
	for i := range served {
		if !bytes.Equal(served[i], copies[i]) {
			t.Fatalf("served body %d changed under later appends", i)
		}
	}
	if entries, size := log.Size(); entries != 205 || size != len(log.TailJSON(0)) {
		t.Fatalf("Size = (%d, %d), want (205, %d)", entries, size, len(log.TailJSON(0)))
	}
}
