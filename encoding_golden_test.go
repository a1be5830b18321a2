package typepre_test

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"typepre/internal/bn254"
	"typepre/internal/core"
	"typepre/internal/hybrid"
	"typepre/internal/ibe"
	"typepre/internal/phr"
	"typepre/internal/phr/diskstore"
)

// TestEncodingsGolden pins every binary container format: KGC params, keys
// and master, the core and hybrid ciphertexts, rekeys and re-encryptions
// (full and compact), the bulk-stream frames, the storage record and the
// disk segments a scripted put/replace/compact run leaves behind. Every
// input is drawn from one seeded reader, so each encoding is a fixed byte
// string; the test holds its SHA-256. A new build must read what an older
// build wrote, and old clients must read what it writes, so any change
// here is a format change.
func TestEncodingsGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	kgc1, err := ibe.Setup("golden-kgc1", rng)
	if err != nil {
		t.Fatal(err)
	}
	kgc2, err := ibe.Setup("golden-kgc2", rng)
	if err != nil {
		t.Fatal(err)
	}
	alice := core.NewDelegator(kgc1.Extract("alice@kgc1"))
	m, err := bn254.RandomGT(rng)
	if err != nil {
		t.Fatal(err)
	}
	kem, err := alice.Encrypt(m, "emergency", rng)
	if err != nil {
		t.Fatal(err)
	}
	rk, err := alice.Delegate(kgc2.Params(), "bob@kgc2", "emergency", rng)
	if err != nil {
		t.Fatal(err)
	}
	rkem, err := core.ReEncrypt(kem, rk)
	if err != nil {
		t.Fatal(err)
	}
	hct, err := hybrid.Encrypt(alice, []byte("golden record body"), "emergency", rng)
	if err != nil {
		t.Fatal(err)
	}
	hrct, err := hybrid.ReEncrypt(hct, rk)
	if err != nil {
		t.Fatal(err)
	}
	prk := core.PrepareReKey(rk)
	var frames [][]byte
	for range 2 { // the first frame is a cache miss, the second a hit
		if err := hybrid.ReEncryptStream([]*hybrid.Ciphertext{hct}, prk, func(f []byte, _ bool) error {
			frames = append(frames, append([]byte(nil), f...))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	rec := &phr.EncryptedRecord{
		ID: "rec-1", PatientID: "alice@kgc1", Category: "emergency",
		CreatedAt: time.Unix(1700000000, 123456789), Sealed: hct,
	}

	got := map[string][]byte{
		"ibe.Params":                 kgc1.Params().Marshal(),
		"ibe.PrivateKey":             kgc1.Extract("alice@kgc1").Marshal(),
		"ibe.MarshalMaster":          kgc1.MarshalMaster(),
		"core.Ciphertext":            kem.Marshal(),
		"core.Ciphertext.compact":    kem.MarshalCompact(),
		"core.ReKey":                 rk.Marshal(),
		"core.ReKey.compact":         rk.MarshalCompact(),
		"core.ReCiphertext":          rkem.Marshal(),
		"hybrid.Ciphertext":          hct.Marshal(),
		"hybrid.ReCiphertext":        hrct.Marshal(),
		"hybrid.ReCiphertext.append": hrct.AppendTo([]byte("prefix")),
		"hybrid.frame.cold":          frames[0],
		"hybrid.frame.warm":          frames[1],
		"phr.MarshalRecord":          phr.MarshalRecord(nil, rec),
		"diskstore.segments":         goldenSegments(t, rec, rng),
	}
	want := map[string]string{
		"ibe.Params":                 "f35a5bb88fa2e04124b9e638607074c043d9aa3a6dc68d2ddd01ecdbe1ddbb53",
		"ibe.PrivateKey":             "616ac019313a0efc64c54b5218387621df6446c1bdd17b0754b33685278b6835",
		"ibe.MarshalMaster":          "cdae9e3b736d37625fb768b3aea218d4e8cf2e6f0cdeee4592de5d3735f55474",
		"core.Ciphertext":            "668fee0cee66cbcbc586c6bd4528df5c9b243a564a219b544ccbb9838520cff9",
		"core.Ciphertext.compact":    "8bc4f517244264bdb49d68196c607daab8d8bc4e88de25a155e3dc31d9185823",
		"core.ReKey":                 "d6414df8b16387210d5a32178079493d5c7634f51cbed6b976a1f11fe7fdcd51",
		"core.ReKey.compact":         "2ed00113e910126c9be93d0ff84d95202a5ae421bb6137da4e3d1368f17cd0c3",
		"core.ReCiphertext":          "ff38f399e85f37afb658acdfa5224a67ffbec56229be6b8243522fb6ae568fbe",
		"hybrid.Ciphertext":          "39773dc752f0ba24da60aada34f65fa5a4ec32089125b242bb46c633dd2faa8a",
		"hybrid.ReCiphertext":        "13e6ee70219a7041bd896a67daedbe29dffccec0c8d5da2edc697ab45ba0a19d",
		"hybrid.ReCiphertext.append": "8af836f40b8798eadbc4fdcae8c73eef6b35f49fc96f3aa06da66273fe30264e",
		"hybrid.frame.cold":          "4a42a2a3ec15fa33069eb0d4599999ed65c9365adf761f090b03b20b5570d80e",
		"hybrid.frame.warm":          "4a42a2a3ec15fa33069eb0d4599999ed65c9365adf761f090b03b20b5570d80e",
		"phr.MarshalRecord":          "9b3a64e5bbffdadb199c7db7e1da8c96b894c5d913a0b3cef076e4b774070c00",
		"diskstore.segments":         "0c1befdb932de3e73295ca1742fdf5c4f2179835d8ef5a55ad0939062841a7cd",
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sum := sha256.Sum256(got[name])
		if h := hex.EncodeToString(sum[:]); h != want[name] {
			t.Errorf("%s: sha256 %s, want %s", name, h, want[name])
		}
	}
}

// goldenSegments runs a fixed script against a fresh disk store (puts that
// rotate segments, a replace, a delete, then Compact) and returns every
// segment file's name and bytes, in name order.
func goldenSegments(t *testing.T, rec *phr.EncryptedRecord, rng *rand.Rand) []byte {
	t.Helper()
	dir := t.TempDir()
	s, err := diskstore.Open(dir, diskstore.Options{SegmentBytes: 1500, Fsync: diskstore.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	body := func(i int) *hybrid.Ciphertext {
		nonce := make([]byte, 12)
		rng.Read(nonce)
		return &hybrid.Ciphertext{KEM: rec.Sealed.KEM, Nonce: nonce, Payload: []byte{byte(i), 1, 2, 3}}
	}
	recs := []*phr.EncryptedRecord{rec}
	for i, p := range []string{"carol@kgc1", "alice@kgc1", "bob@kgc1"} {
		r := *rec
		r.ID, r.PatientID, r.Sealed = "rec-"+string(rune('2'+i)), p, body(i)
		recs = append(recs, &r)
	}
	for _, r := range recs {
		if err := s.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	replaced := *recs[1]
	replaced.Sealed = body(9)
	if err := s.Replace(&replaced); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(recs[3].ID); err != nil {
		t.Fatal(err)
	}
	var out []byte
	snapshot := func() {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries { // ReadDir sorts by name
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out = append(append(append(out, e.Name()...), 0), b...)
		}
	}
	snapshot()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	snapshot()
	return out
}
