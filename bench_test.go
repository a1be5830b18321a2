// Benchmarks regenerating every experiment table and figure of the README's
// "Experiments" section (the paper itself reports no numbers, so these are
// the reproduction's artifacts):
//
//	E1 "Table 1"  — pairing-substrate primitive costs
//	E2 "Table 2"  — scheme operation latencies
//	E3 "Table 3"  — key/ciphertext sizes (reported as metrics)
//	E4 "Table 4"  — ours vs the four related-work schemes
//	E5 "Figure 1" — delegation setup cost vs number of categories
//	E6 "Figure 2" — blast radius of proxy compromise
//	E7 "Figure 3" — end-to-end disclosure vs payload size
//	E9            — bulk category disclosure (BenchmarkDiscloseCategory, warm;
//	                BenchmarkDiscloseCategoryCold, a pairing per record)
//
// E8, the collusion outcomes, is a set of tests, not timings; the README
// table names them.
//
// Run: go test -run '^$' -bench . -benchmem
package typepre_test

import (
	"fmt"
	"testing"

	"typepre"
	"typepre/internal/baselines/afgh"
	"typepre/internal/baselines/bbs"
	"typepre/internal/baselines/dodisivan"
	"typepre/internal/baselines/ga"
	"typepre/internal/bn254"
	"typepre/internal/core"
	"typepre/internal/hybrid"
	"typepre/internal/ibe"
	"typepre/internal/phr"
)

// benchEnv is the shared two-domain fixture.
type benchEnv struct {
	kgc1, kgc2 *ibe.KGC
	alice      *core.Delegator
	bobKey     *ibe.PrivateKey
	msg        *bn254.GT
	ct         *core.Ciphertext
	rk         *core.ReKey
	rct        *core.ReCiphertext
}

var sharedEnv *benchEnv

func env(b *testing.B) *benchEnv {
	b.Helper()
	if sharedEnv != nil {
		return sharedEnv
	}
	kgc1, err := ibe.Setup("bench-kgc1", nil)
	if err != nil {
		b.Fatal(err)
	}
	kgc2, err := ibe.Setup("bench-kgc2", nil)
	if err != nil {
		b.Fatal(err)
	}
	alice := core.NewDelegator(kgc1.Extract("alice@bench"))
	bobKey := kgc2.Extract("bob@bench")
	msg, err := bn254.RandomGT(nil)
	if err != nil {
		b.Fatal(err)
	}
	ct, err := alice.Encrypt(msg, "bench-type", nil)
	if err != nil {
		b.Fatal(err)
	}
	rk, err := alice.Delegate(kgc2.Params(), "bob@bench", "bench-type", nil)
	if err != nil {
		b.Fatal(err)
	}
	rct, err := core.ReEncrypt(ct, rk)
	if err != nil {
		b.Fatal(err)
	}
	sharedEnv = &benchEnv{kgc1: kgc1, kgc2: kgc2, alice: alice, bobKey: bobKey, msg: msg, ct: ct, rk: rk, rct: rct}
	return sharedEnv
}

// ---------------------------------------------------------------------------
// E1 "Table 1": pairing-substrate primitives
// ---------------------------------------------------------------------------

func BenchmarkE1_Pairing(b *testing.B) {
	p := bn254.G1Generator()
	q := bn254.G2Generator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bn254.Pair(p, q)
	}
}

func BenchmarkE1_G1ScalarMult(b *testing.B) {
	k, _ := bn254.RandomScalar(nil)
	var out bn254.G1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.ScalarBaseMult(k)
	}
}

func BenchmarkE1_G2ScalarMult(b *testing.B) {
	k, _ := bn254.RandomScalar(nil)
	var out bn254.G2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.ScalarBaseMult(k)
	}
}

func BenchmarkE1_GTExp(b *testing.B) {
	k, _ := bn254.RandomScalar(nil)
	base := bn254.GTBase()
	var out bn254.GT
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Exp(base, k)
	}
}

func BenchmarkE1_HashToG1(b *testing.B) {
	msgs := make([][]byte, 16)
	for i := range msgs {
		msgs[i] = []byte(fmt.Sprintf("identity-%d@bench", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bn254.HashToG1(bn254.DomainG1, msgs[i%len(msgs)])
	}
}

func BenchmarkE1_HashToZr(b *testing.B) {
	msg := []byte("type:illness-history")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bn254.HashToZr(bn254.DomainZr, msg)
	}
}

// ---------------------------------------------------------------------------
// E2 "Table 2": scheme operation latencies
// ---------------------------------------------------------------------------

func BenchmarkE2_Setup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ibe.Setup("kgc", nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2_Extract(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.kgc1.Extract("user@bench")
	}
}

func BenchmarkE2_NewDelegator(b *testing.B) {
	e := env(b)
	key := e.kgc1.Extract("user@bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.NewDelegator(key)
	}
}

func BenchmarkE2_Encrypt1(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.alice.Encrypt(e.msg, "bench-type", nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2_Decrypt1(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.alice.Decrypt(e.ct); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2_Pextract(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.alice.Delegate(e.kgc2.Params(), "bob@bench", "bench-type", nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2_Preenc(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ReEncrypt(e.ct, e.rk); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2_ReDecrypt(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DecryptReEncrypted(e.bobKey, e.rct); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// E2 precompute ablations: the repeated-use paths the precompute subsystem
// targets, against their naive counterparts.
// ---------------------------------------------------------------------------

// BenchmarkE2_Encrypt2_KnownIdentity measures the hot PHR pattern: IBE
// encryption to an identity whose mask ê(H1(id), pk) is already cached on
// the KGC parameters (the cache is warmed by the first iteration and by
// env()'s setup traffic).
func BenchmarkE2_Encrypt2_KnownIdentity(b *testing.B) {
	e := env(b)
	params := e.kgc2.Params()
	params.EncryptionMask("bob@bench") // warm explicitly
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ibe.Encrypt(params, "bob@bench", e.msg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2_Encrypt2_NaiveMask is the same operation through bare
// parameters with no precomputation state: every iteration pays the full
// pairing, as every call site did before the precompute subsystem.
func BenchmarkE2_Encrypt2_NaiveMask(b *testing.B) {
	e := env(b)
	bare := &ibe.Params{Name: "naive", PK: e.kgc2.Params().PK}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ibe.Encrypt(bare, "bob@bench", e.msg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2_Preenc_Prepared measures the proxy's repeat transformation of
// one sealed record through a prepared rekey: after the first request the
// finished c2′ is cached and the transform decodes it, pairing-free.
func BenchmarkE2_Preenc_Prepared(b *testing.B) {
	e := env(b)
	prk := core.PrepareReKey(e.rk)
	if _, err := prk.ReEncrypt(e.ct); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prk.ReEncrypt(e.ct); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2_Preenc_Frame measures what a proxy does for a warm disclosure
// of a sealed record with a 1 KiB payload: the container that goes on the
// wire, appended from the prepared rekey's cache into a reused buffer.
func BenchmarkE2_Preenc_Frame(b *testing.B) {
	e := env(b)
	ct := &hybrid.Ciphertext{KEM: e.ct, Nonce: make([]byte, 12), Payload: make([]byte, 1<<10)}
	prk := core.PrepareReKey(e.rk)
	frame, err := hybrid.AppendReEncrypted(nil, ct, prk) // warm the cache
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if frame, err = hybrid.AppendReEncrypted(frame[:0], ct, prk); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// E3 "Table 3": sizes, reported as benchmark metrics (bytes are exact and
// deterministic; the bench exists so one command regenerates every table)
// ---------------------------------------------------------------------------

func BenchmarkE3_Sizes(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		_ = e.ct.Marshal()
	}
	b.ReportMetric(float64(len(e.ct.Marshal())), "ct_bytes")
	b.ReportMetric(float64(len(e.rct.Marshal())), "rct_bytes")
	b.ReportMetric(float64(len(e.rk.Marshal())), "rekey_bytes")
	b.ReportMetric(float64(len(e.bobKey.Marshal())), "sk_bytes")
	b.ReportMetric(float64(len(e.kgc1.Params().Marshal())), "params_bytes")
	// Compact forms carry compressed points.
	b.ReportMetric(float64(len(e.ct.MarshalCompact())), "ct_compact_bytes")
	b.ReportMetric(float64(len(e.rk.MarshalCompact())), "rekey_compact_bytes")
	hct, err := hybrid.Encrypt(e.alice, make([]byte, 1024), "bench-type", nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(len(hct.Marshal())), "hybrid_ct_1KiB_bytes")
}

// ---------------------------------------------------------------------------
// E4 "Table 4": scheme comparison on the full delegate-transform-read cycle
// ---------------------------------------------------------------------------

func BenchmarkE4_Ours_FullCycle(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ct, err := e.alice.Encrypt(e.msg, "t", nil)
		if err != nil {
			b.Fatal(err)
		}
		rk, err := e.alice.Delegate(e.kgc2.Params(), "bob@bench", "t", nil)
		if err != nil {
			b.Fatal(err)
		}
		rct, err := core.ReEncrypt(ct, rk)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.DecryptReEncrypted(e.bobKey, rct); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4_GA_FullCycle(b *testing.B) {
	e := env(b)
	aliceKey := e.kgc1.Extract("alice@bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ct, err := ga.Encrypt(e.kgc1.Params(), "alice@bench", e.msg, nil)
		if err != nil {
			b.Fatal(err)
		}
		rk, err := ga.RKGen(aliceKey, e.kgc2.Params(), "bob@bench", nil)
		if err != nil {
			b.Fatal(err)
		}
		rct, err := ga.ReEncrypt(rk, ct)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ga.DecryptReEncrypted(e.bobKey, rct); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4_AFGH_FullCycle(b *testing.B) {
	alice, err := afgh.KeyGen(nil)
	if err != nil {
		b.Fatal(err)
	}
	bob, err := afgh.KeyGen(nil)
	if err != nil {
		b.Fatal(err)
	}
	msg, _ := bn254.RandomGT(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ct, err := afgh.EncryptSecondLevel(alice, msg, nil)
		if err != nil {
			b.Fatal(err)
		}
		rk, err := afgh.ReKey(alice.SK, bob.PK2)
		if err != nil {
			b.Fatal(err)
		}
		rct, err := afgh.ReEncrypt(rk, ct)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := afgh.DecryptFirstLevel(bob.SK, rct); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4_BBS_FullCycle(b *testing.B) {
	alice, _ := bbs.KeyGen(nil)
	bob, _ := bbs.KeyGen(nil)
	k, _ := bn254.RandomScalar(nil)
	var msg bn254.G1
	msg.ScalarBaseMult(k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ct, err := bbs.Encrypt(alice.PK, &msg, nil)
		if err != nil {
			b.Fatal(err)
		}
		rk, err := bbs.ReKey(alice, bob)
		if err != nil {
			b.Fatal(err)
		}
		rct, err := bbs.ReEncrypt(rk, ct)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := bbs.Decrypt(bob.SK, rct); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4_DodisIvan_FullCycle(b *testing.B) {
	e := env(b)
	aliceKey := e.kgc1.Extract("alice@bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ct, err := ibe.Encrypt(e.kgc1.Params(), "alice@bench", e.msg, nil)
		if err != nil {
			b.Fatal(err)
		}
		shares, err := dodisivan.Split(aliceKey, nil)
		if err != nil {
			b.Fatal(err)
		}
		partial, err := dodisivan.ProxyTransform(shares.ProxyShare, ct)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dodisivan.Finish(shares.DelegateeShare, partial); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// E5 "Figure 1": delegation setup cost vs number of categories. Ours needs
// ONE key pair + T rekeys; AFGH needs T key pairs + T rekeys to isolate
// categories (one keypair per category).
// ---------------------------------------------------------------------------

func benchE5Ours(b *testing.B, categories int) {
	e := env(b)
	b.ReportMetric(1, "delegator_keypairs")
	b.ReportMetric(float64(categories), "rekeys")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for t := 0; t < categories; t++ {
			typ := core.Type(fmt.Sprintf("cat-%d", t))
			if _, err := e.alice.Delegate(e.kgc2.Params(), "bob@bench", typ, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func benchE5AFGH(b *testing.B, categories int) {
	bob, err := afgh.KeyGen(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(categories), "delegator_keypairs")
	b.ReportMetric(float64(categories), "rekeys")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for t := 0; t < categories; t++ {
			// Per-category isolation in AFGH demands a fresh key pair per
			// category, then a rekey from it.
			kp, err := afgh.KeyGen(nil)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := afgh.ReKey(kp.SK, bob.PK2); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkE5_Ours_T1(b *testing.B)  { benchE5Ours(b, 1) }
func BenchmarkE5_Ours_T2(b *testing.B)  { benchE5Ours(b, 2) }
func BenchmarkE5_Ours_T4(b *testing.B)  { benchE5Ours(b, 4) }
func BenchmarkE5_Ours_T8(b *testing.B)  { benchE5Ours(b, 8) }
func BenchmarkE5_Ours_T16(b *testing.B) { benchE5Ours(b, 16) }
func BenchmarkE5_Ours_T32(b *testing.B) { benchE5Ours(b, 32) }
func BenchmarkE5_Ours_T64(b *testing.B) { benchE5Ours(b, 64) }

func BenchmarkE5_AFGH_T1(b *testing.B)  { benchE5AFGH(b, 1) }
func BenchmarkE5_AFGH_T2(b *testing.B)  { benchE5AFGH(b, 2) }
func BenchmarkE5_AFGH_T4(b *testing.B)  { benchE5AFGH(b, 4) }
func BenchmarkE5_AFGH_T8(b *testing.B)  { benchE5AFGH(b, 8) }
func BenchmarkE5_AFGH_T16(b *testing.B) { benchE5AFGH(b, 16) }
func BenchmarkE5_AFGH_T32(b *testing.B) { benchE5AFGH(b, 32) }
func BenchmarkE5_AFGH_T64(b *testing.B) { benchE5AFGH(b, 64) }

// ---------------------------------------------------------------------------
// E6 "Figure 2": blast radius of proxy compromise as k of the six category
// proxies are corrupted (structural simulation over a synthetic corpus;
// cryptographic ground truth is pinned by internal/phr tests).
// ---------------------------------------------------------------------------

var e6Workload *phr.Workload

func e6Env(b *testing.B) *phr.Workload {
	b.Helper()
	if e6Workload != nil {
		return e6Workload
	}
	cfg := phr.DefaultWorkload()
	cfg.Patients = 8
	cfg.RecordsPerPatient = 8
	cfg.Categories = phr.StandardCategories()
	cfg.GrantsPerPatient = 4
	w, err := phr.GenerateWorkload(cfg)
	if err != nil {
		b.Fatal(err)
	}
	e6Workload = w
	return w
}

// benchE6 reports the exposed fraction of the corpus with the first k
// category proxies corrupted, for k = 1..6 (k = 0 exposes nothing).
func benchE6(b *testing.B, simulate func(phr.Backend, []*phr.Proxy) *phr.ExposureReport) {
	w := e6Env(b)
	cats := phr.StandardCategories()
	for k := 1; k <= len(cats); k++ {
		b.Run(fmt.Sprintf("corrupted-%d", k), func(b *testing.B) {
			corrupted := make([]*phr.Proxy, k)
			for i, c := range cats[:k] {
				p, err := w.Service.ProxyFor(c)
				if err != nil {
					b.Fatal(err)
				}
				corrupted[i] = p
			}
			var frac float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				frac = simulate(w.Service.Store, corrupted).Fraction()
			}
			b.ReportMetric(frac, "exposed_fraction")
		})
	}
}

func BenchmarkE6_BlastRadius_TypePRE(b *testing.B) { benchE6(b, phr.SimulateTypePREBreach) }

func BenchmarkE6_BlastRadius_Traditional(b *testing.B) {
	benchE6(b, phr.SimulateTraditionalPREBreach)
}

// ---------------------------------------------------------------------------
// E7 "Figure 3": end-to-end disclosure latency vs payload size. The proxy
// transformation cost must be flat in the payload size (KEM/DEM).
// ---------------------------------------------------------------------------

func benchE7(b *testing.B, payload int) {
	e := env(b)
	body := make([]byte, payload)
	for i := range body {
		body[i] = byte(i)
	}
	ct, err := hybrid.Encrypt(e.alice, body, "bench-type", nil)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(payload))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rct, err := hybrid.ReEncrypt(ct, e.rk)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := hybrid.DecryptReEncrypted(e.bobKey, rct); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE7_Disclose_256B(b *testing.B)  { benchE7(b, 256) }
func BenchmarkE7_Disclose_4KiB(b *testing.B)  { benchE7(b, 4<<10) }
func BenchmarkE7_Disclose_64KiB(b *testing.B) { benchE7(b, 64<<10) }
func BenchmarkE7_Disclose_1MiB(b *testing.B)  { benchE7(b, 1<<20) }

// benchE7Proxy isolates the proxy's own work (no delegatee decryption) to
// show it is payload-independent; the delegatee's share of E7 is the
// Disclose row minus this one.
func benchE7Proxy(b *testing.B, payload int) {
	e := env(b)
	body := make([]byte, payload)
	ct, err := hybrid.Encrypt(e.alice, body, "bench-type", nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hybrid.ReEncrypt(ct, e.rk); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE7_ProxyOnly_256B(b *testing.B)  { benchE7Proxy(b, 256) }
func BenchmarkE7_ProxyOnly_4KiB(b *testing.B)  { benchE7Proxy(b, 4<<10) }
func BenchmarkE7_ProxyOnly_64KiB(b *testing.B) { benchE7Proxy(b, 64<<10) }
func BenchmarkE7_ProxyOnly_1MiB(b *testing.B)  { benchE7Proxy(b, 1<<20) }

// ---------------------------------------------------------------------------
// E9: bulk disclosure — one category stream through the proxy's real path
// (grant lookup, hybrid.ReEncryptStream, per-record liveness re-check and
// audit) over a workload-generated patient. The pool is sized by
// GOMAXPROCS, so serial against parallel is
// `go test -bench DiscloseCategory -cpu 1,2`. The warm variant serves
// every record from the grant's c2′ cache on the calling goroutine; the
// cold one pays a pairing per record in the pool. Order and byte-identical plaintexts are pinned by
// the internal/hybrid and internal/phr tests; here we measure throughput.
// ---------------------------------------------------------------------------

func benchDiscloseCategory(b *testing.B, records int, cold bool) {
	// A fresh corpus per run: every disclosed record appends to the
	// proxy's audit log, which must not carry over between runs.
	f, err := phr.NewBulkFixture(records)
	if err != nil {
		b.Fatal(err)
	}
	rk := f.Proxy.CompromisedGrants()[0] // the fixture's one installed rekey
	disclose := func() {
		if cold {
			if err := f.Proxy.Install(rk); err != nil {
				b.Fatal(err)
			}
		}
		n := 0
		err := f.Proxy.DiscloseCategoryStream(f.Service.Store, f.PatientID, phr.CategoryEmergency, f.RequesterID,
			func([]byte, bool) error { n++; return nil })
		if err != nil {
			b.Fatal(err)
		}
		if n != records {
			b.Fatalf("disclosed %d records, want %d", n, records)
		}
	}
	// Warm the grant's per-record c2′ cache: the warm runs measure
	// the steady-state serving path (write once, disclose many).
	disclose()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		disclose()
	}
	b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

func BenchmarkDiscloseCategory(b *testing.B) {
	for _, n := range []int{1, 8, 64, 512} {
		b.Run(fmt.Sprintf("records-%d", n), func(b *testing.B) { benchDiscloseCategory(b, n, false) })
	}
}

// BenchmarkDiscloseCategoryCold is E9 with no warm cache: before each
// iteration the fixture's rekey is installed again, which replaces the
// prepared rekey and empties its c2′ cache, so every record pays a
// bn254 pairing (the first disclosure under a new grant).
func BenchmarkDiscloseCategoryCold(b *testing.B) {
	for _, n := range []int{1, 8, 64, 512} {
		b.Run(fmt.Sprintf("records-%d", n), func(b *testing.B) { benchDiscloseCategory(b, n, true) })
	}
}

// Facade sanity: the public API costs what the internal API costs
// (typepre.Delegator is a type alias of the internal delegator).
func BenchmarkFacade_EncryptBytes_1KiB(b *testing.B) {
	e := env(b)
	body := make([]byte, 1<<10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := typepre.EncryptBytes(e.alice, body, "t", nil); err != nil {
			b.Fatal(err)
		}
	}
}
