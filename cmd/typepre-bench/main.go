// Command typepre-bench regenerates every experiment table and figure
// series defined in EXPERIMENTS.md (E1–E9). The paper itself reports no
// quantitative evaluation; these are the canonical artifacts for its
// claims, and `go test -bench .` reproduces the same measurements through
// the testing.B harness.
//
// Usage:
//
//	typepre-bench               # run everything
//	typepre-bench -e e5         # one experiment
//	typepre-bench -iters 50     # more timing iterations
//	typepre-bench -e pairing-stack -json -label after-x   # a BENCH_bn254.json run object
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"typepre/internal/baselines/afgh"
	"typepre/internal/baselines/bbs"
	"typepre/internal/baselines/dodisivan"
	"typepre/internal/baselines/ga"
	"typepre/internal/bn254"
	"typepre/internal/bn254/fp"
	"typepre/internal/core"
	"typepre/internal/hybrid"
	"typepre/internal/ibe"
	"typepre/internal/phr"
)

var (
	experiment = flag.String("e", "all", "experiment to run: e1..e9, pairing-stack, or all")
	iters      = flag.Int("iters", 20, "timing iterations per data point")
	jsonOut    = flag.Bool("json", false, "with -e pairing-stack: print one BENCH_bn254.json run object (ns/op) instead of the table")
	label      = flag.String("label", "pairing-stack", "run label for -json")
)

func main() {
	flag.Parse()
	if *jsonOut && strings.ToLower(*experiment) != "pairing-stack" {
		fmt.Fprintln(os.Stderr, "-json needs -e pairing-stack")
		os.Exit(2)
	}
	run := map[string]func(){
		"e1": e1, "e2": e2, "e3": e3, "e4": e4,
		"e5": e5, "e6": e6, "e7": e7, "e8": e8, "e9": e9,
		"pairing-stack": pairingStack,
	}
	if *experiment == "all" {
		keys := make([]string, 0, len(run))
		for k := range run {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			run[k]()
		}
		return
	}
	f, ok := run[strings.ToLower(*experiment)]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (want e1..e9, pairing-stack, or all)\n", *experiment)
		os.Exit(2)
	}
	f()
}

// stackOp is one pairing-stack measurement. bench is the key in the -json
// run object, named like the `go test -bench` benchmark that measures the
// same operation; reps > 1 runs f that many times per timed sample, for
// field operations far below the resolution of one time.Now pair.
type stackOp struct {
	row, bench string
	reps       int
	f          func()
}

// pairingStackOps lists the microbenchmarks down the whole pairing
// arithmetic stack: the Montgomery-limb Fp core, the group operations
// built on it, and the pairing.
func pairingStackOps() []stackOp {
	var a, b, out fp.Element
	a.SetUint64(0xdeadbeefcafef00d)
	a.Inverse(&a)
	b.Square(&a)

	p := bn254.G1Generator()
	q := bn254.G2Generator()
	k, err := bn254.RandomScalar(nil)
	check(err)
	var g1 bn254.G1
	var g2 bn254.G2
	var gt bn254.GT
	base := bn254.GTBase()

	return []stackOp{
		{"Fp mul (no-carry CIOS)", "fp.Mul", 1024, func() { out.Mul(&a, &b) }},
		{"Fp square", "fp.Square", 1024, func() { out.Square(&a) }},
		{"Fp add", "fp.Add", 1024, func() { out.Add(&a, &b) }},
		{"Fp inverse (Fermat, CT)", "fp.Inverse", 1, func() { out.Inverse(&a) }},
		{"Fp sqrt", "fp.Sqrt", 1, func() { out.Sqrt(&b) }},
		{"G1 scalar mult (fixed base)", "G1ScalarBaseMultFixed", 1, func() { g1.ScalarBaseMult(k) }},
		{"G2 scalar mult (fixed base)", "G2ScalarBaseMultFixed", 1, func() { g2.ScalarBaseMult(k) }},
		{"GT exponentiation", "GTExpBaseGeneric", 1, func() { gt.Exp(base, k) }},
		{"GT fixed-base exp", "GTExpBaseFixed", 1, func() { bn254.GTExpBase(k) }},
		{"pairing (optimal ate)", "Pair", 1, func() { bn254.Pair(p, q) }},
	}
}

// stackRun is one run object of BENCH_bn254.json (schema bn254/1).
type stackRun struct {
	Label      string             `json:"label"`
	Rev        string             `json:"rev"`
	Note       string             `json:"note"`
	Benchmarks map[string]float64 `json:"benchmarks"`
}

// pairingStack prints the pairing-stack table, or with -json one
// BENCH_bn254.json run object. CI uploads both next to the committed
// BENCH_bn254.json trajectory; `go test -bench . ./internal/bn254/...`
// reproduces the same measurements through the testing harness.
func pairingStack() {
	if err := writePairingStack(os.Stdout, *jsonOut); err != nil {
		log.Fatal(err)
	}
}

func writePairingStack(w io.Writer, asJSON bool) error {
	if !asJSON {
		title := "pairing-stack — Fp limb core through full pairing"
		fmt.Fprintf(w, "\n%s\n%s\n", title, strings.Repeat("=", len(title)))
	}
	run := stackRun{
		Label: *label,
		Rev:   buildRev(),
		Note: fmt.Sprintf("typepre-bench -e pairing-stack: median of %d timed samples per operation, %s/%s, %d CPUs, %s",
			*iters, runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.Version()),
		Benchmarks: make(map[string]float64),
	}
	for _, op := range pairingStackOps() {
		ns := float64(timeOp(func() {
			for i := 0; i < op.reps; i++ {
				op.f()
			}
		})) / float64(op.reps)
		run.Benchmarks[op.bench] = math.Round(ns*10) / 10
		if !asJSON {
			d := time.Duration(ns)
			if op.reps == 1 {
				d = d.Round(time.Microsecond)
			}
			fmt.Fprintf(w, "  %-28s %12s\n", op.row, d)
		}
	}
	if !asJSON {
		return nil
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(run)
}

// buildRev returns the VCS revision `go build` stamped into the binary,
// with "+dirty" for a modified tree, or "unknown" (e.g. under `go run`).
func buildRev() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	r, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			r = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if r == "" {
		return "unknown"
	}
	if dirty {
		r += "+dirty"
	}
	return r
}

// timeOp reports the median wall time of n runs of f.
func timeOp(f func()) time.Duration {
	n := *iters
	samples := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		f()
		samples = append(samples, time.Since(start))
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[len(samples)/2]
}

func header(title string) {
	fmt.Printf("\n%s\n%s\n", title, strings.Repeat("=", len(title)))
}

func row(name string, d time.Duration) {
	fmt.Printf("  %-28s %12s\n", name, d.Round(time.Microsecond))
}

// fixture shared by the scheme-level experiments.
type fixture struct {
	kgc1, kgc2 *ibe.KGC
	alice      *core.Delegator
	aliceKey   *ibe.PrivateKey
	bobKey     *ibe.PrivateKey
	msg        *bn254.GT
	ct         *core.Ciphertext
	rk         *core.ReKey
	rct        *core.ReCiphertext
}

var fx *fixture

func getFixture() *fixture {
	if fx != nil {
		return fx
	}
	kgc1, err := ibe.Setup("bench-kgc1", nil)
	check(err)
	kgc2, err := ibe.Setup("bench-kgc2", nil)
	check(err)
	aliceKey := kgc1.Extract("alice@bench")
	alice := core.NewDelegator(aliceKey)
	bobKey := kgc2.Extract("bob@bench")
	msg, _, err := bn254.RandomGT(nil)
	check(err)
	ct, err := alice.Encrypt(msg, "t", nil)
	check(err)
	rk, err := alice.Delegate(kgc2.Params(), "bob@bench", "t", nil)
	check(err)
	rct, err := core.ReEncrypt(ct, rk)
	check(err)
	fx = &fixture{kgc1: kgc1, kgc2: kgc2, alice: alice, aliceKey: aliceKey,
		bobKey: bobKey, msg: msg, ct: ct, rk: rk, rct: rct}
	return fx
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func e1() {
	header("E1 (Table 1) — pairing-substrate primitive costs, BN254/montgomery-limbs")
	p := bn254.G1Generator()
	q := bn254.G2Generator()
	k, _ := bn254.RandomScalar(nil)
	base := bn254.GTBase()

	row("pairing (optimal ate)", timeOp(func() { bn254.Pair(p, q) }))
	var g1 bn254.G1
	row("G1 scalar mult", timeOp(func() { g1.ScalarBaseMult(k) }))
	var g2 bn254.G2
	row("G2 scalar mult", timeOp(func() { g2.ScalarBaseMult(k) }))
	var gt bn254.GT
	row("GT exponentiation", timeOp(func() { gt.Exp(base, k) }))
	row("GT fixed-base exp", timeOp(func() { bn254.GTExpBase(k) }))
	i := 0
	row("hash-to-G1 (try&increment)", timeOp(func() {
		i++
		bn254.HashToG1(bn254.DomainG1, []byte(fmt.Sprintf("id-%d", i)))
	}))
	row("hash-to-Zr", timeOp(func() { bn254.HashToZr(bn254.DomainZr, []byte("type")) }))
}

func e2() {
	header("E2 (Table 2) — scheme operation latencies")
	f := getFixture()
	row("Setup (KGC keygen)", timeOp(func() {
		_, err := ibe.Setup("kgc", nil)
		check(err)
	}))
	row("Extract", timeOp(func() { f.kgc1.Extract("u@bench") }))
	key := f.kgc1.Extract("u@bench")
	row("NewDelegator (1 pairing)", timeOp(func() { core.NewDelegator(key) }))
	row("Encrypt1", timeOp(func() {
		_, err := f.alice.Encrypt(f.msg, "t", nil)
		check(err)
	}))
	row("Decrypt1", timeOp(func() {
		_, err := f.alice.Decrypt(f.ct)
		check(err)
	}))
	row("Pextract (rekey gen)", timeOp(func() {
		_, err := f.alice.Delegate(f.kgc2.Params(), "bob@bench", "t", nil)
		check(err)
	}))
	row("Preenc (proxy transform)", timeOp(func() {
		_, err := core.ReEncrypt(f.ct, f.rk)
		check(err)
	}))
	row("Re-decrypt (delegatee)", timeOp(func() {
		_, err := core.DecryptReEncrypted(f.bobKey, f.rct)
		check(err)
	}))

	// Precompute ablations: the repeated-use paths against their naive
	// counterparts (see internal/bn254/precompute.go).
	params := f.kgc2.Params()
	params.EncryptionMask("bob@bench")
	row("Encrypt2 (cached mask)", timeOp(func() {
		_, err := ibe.Encrypt(params, "bob@bench", f.msg, nil)
		check(err)
	}))
	bare := &ibe.Params{Name: "naive", PK: params.PK}
	row("Encrypt2 (naive mask)", timeOp(func() {
		_, err := ibe.Encrypt(bare, "bob@bench", f.msg, nil)
		check(err)
	}))
	prk := core.PrepareReKey(f.rk)
	_, err := prk.ReEncrypt(f.ct)
	check(err)
	row("Preenc (prepared, repeat)", timeOp(func() {
		_, err := prk.ReEncrypt(f.ct)
		check(err)
	}))
}

func e3() {
	header("E3 (Table 3) — marshaled sizes (bytes, exact)")
	f := getFixture()
	fmt.Printf("  %-28s %8d\n", "KGC params", len(f.kgc1.Params().Marshal()))
	fmt.Printf("  %-28s %8d\n", "private key", len(f.bobKey.Marshal()))
	fmt.Printf("  %-28s %8d\n", "ciphertext (GT message)", len(f.ct.Marshal()))
	fmt.Printf("  %-28s %8d\n", "re-encryption key", len(f.rk.Marshal()))
	fmt.Printf("  %-28s %8d\n", "re-encrypted ciphertext", len(f.rct.Marshal()))
	fmt.Printf("  %-28s %8d  (compressed points)\n", "ciphertext, compact", len(f.ct.MarshalCompact()))
	fmt.Printf("  %-28s %8d  (compressed points)\n", "re-encryption key, compact", len(f.rk.MarshalCompact()))
	hct, err := hybrid.Encrypt(f.alice, make([]byte, 1024), "t", nil)
	check(err)
	fmt.Printf("  %-28s %8d  (1024-byte payload)\n", "hybrid ciphertext", len(hct.Marshal()))
}

func e4() {
	header("E4 (Table 4) — related-work comparison, full delegate→transform→read cycle")
	fmt.Printf("  %-12s %-6s %-8s %-10s %-10s %12s\n",
		"scheme", "dir", "interact", "collusion", "granular", "median")
	f := getFixture()

	ours := timeOp(func() {
		ct, err := f.alice.Encrypt(f.msg, "t", nil)
		check(err)
		rk, err := f.alice.Delegate(f.kgc2.Params(), "bob@bench", "t", nil)
		check(err)
		rct, err := core.ReEncrypt(ct, rk)
		check(err)
		_, err = core.DecryptReEncrypted(f.bobKey, rct)
		check(err)
	})
	fmt.Printf("  %-12s %-6s %-8s %-10s %-10s %12s\n", "ours", "uni", "no", "safe", "per-type", ours.Round(time.Microsecond))

	gaT := timeOp(func() {
		ct, err := ga.Encrypt(f.kgc1.Params(), "alice@bench", f.msg, nil)
		check(err)
		rk, err := ga.RKGen(f.aliceKey, f.kgc2.Params(), "bob@bench", nil)
		check(err)
		rct, err := ga.ReEncrypt(rk, ct)
		check(err)
		_, err = ga.DecryptReEncrypted(f.bobKey, rct)
		check(err)
	})
	fmt.Printf("  %-12s %-6s %-8s %-10s %-10s %12s\n", "GA-IBP1", "uni", "no", "sk-leak*", "all", gaT.Round(time.Microsecond))

	aliceA, err := afgh.KeyGen(nil)
	check(err)
	bobA, err := afgh.KeyGen(nil)
	check(err)
	afghT := timeOp(func() {
		ct, err := afgh.EncryptSecondLevel(aliceA, f.msg, nil)
		check(err)
		rk, err := afgh.ReKey(aliceA.SK, bobA.PK2)
		check(err)
		rct, err := afgh.ReEncrypt(rk, ct)
		check(err)
		_, err = afgh.DecryptFirstLevel(bobA.SK, rct)
		check(err)
	})
	fmt.Printf("  %-12s %-6s %-8s %-10s %-10s %12s\n", "AFGH", "uni", "no", "weak-key", "all", afghT.Round(time.Microsecond))

	aliceB, _ := bbs.KeyGen(nil)
	bobB, _ := bbs.KeyGen(nil)
	kk, _ := bn254.RandomScalar(nil)
	var mG1 bn254.G1
	mG1.ScalarBaseMult(kk)
	bbsT := timeOp(func() {
		ct, err := bbs.Encrypt(aliceB.PK, &mG1, nil)
		check(err)
		rk, err := bbs.ReKey(aliceB, bobB)
		check(err)
		rct, err := bbs.ReEncrypt(rk, ct)
		check(err)
		_, err = bbs.Decrypt(bobB.SK, rct)
		check(err)
	})
	fmt.Printf("  %-12s %-6s %-8s %-10s %-10s %12s\n", "BBS", "bi", "yes", "unsafe", "all", bbsT.Round(time.Microsecond))

	diT := timeOp(func() {
		ct, err := ibe.Encrypt(f.kgc1.Params(), "alice@bench", f.msg, nil)
		check(err)
		shares, err := dodisivan.Split(f.aliceKey, nil)
		check(err)
		partial, err := dodisivan.ProxyTransform(shares.ProxyShare, ct)
		check(err)
		_, err = dodisivan.Finish(shares.DelegateeShare, partial)
		check(err)
	})
	fmt.Printf("  %-12s %-6s %-8s %-10s %-10s %12s\n", "Dodis-Ivan", "uni", "yes", "unsafe", "all", diT.Round(time.Microsecond))
	fmt.Println("  * GA-IBP1 collusion yields the full identity key (all messages);")
	fmt.Println("    ours yields only the per-type key (Theorem 1).")
}

func e5() {
	header("E5 (Figure 1) — delegation setup vs number of categories (1 delegatee)")
	fmt.Printf("  %-6s | %-22s | %-22s\n", "T", "ours (1 keypair)", "AFGH (T keypairs)")
	f := getFixture()
	for _, T := range []int{1, 2, 4, 8, 16, 32, 64} {
		oursT := timeOp(func() {
			for t := 0; t < T; t++ {
				_, err := f.alice.Delegate(f.kgc2.Params(), "bob@bench", core.Type(fmt.Sprintf("c%d", t)), nil)
				check(err)
			}
		})
		bobA, err := afgh.KeyGen(nil)
		check(err)
		afghT := timeOp(func() {
			for t := 0; t < T; t++ {
				kp, err := afgh.KeyGen(nil)
				check(err)
				_, err = afgh.ReKey(kp.SK, bobA.PK2)
				check(err)
			}
		})
		fmt.Printf("  %-6d | %22s | %22s\n", T,
			oursT.Round(time.Microsecond), afghT.Round(time.Microsecond))
	}
	fmt.Println("  key-pair count: ours is always 1; AFGH grows linearly in T.")
}

func e6() {
	header("E6 (Figure 2) — records exposed by corrupting k of 6 category proxies")
	cfg := phr.DefaultWorkload()
	cfg.Patients = 8
	cfg.RecordsPerPatient = 8
	cfg.Categories = phr.StandardCategories()
	cfg.GrantsPerPatient = 4
	w, err := phr.GenerateWorkload(cfg)
	check(err)

	cats := phr.StandardCategories()
	fmt.Printf("  %-10s | %-18s | %-18s\n", "corrupted", "type-PRE exposed", "traditional exposed")
	var corrupted []*phr.Proxy
	for k := 0; k <= len(cats); k++ {
		typeRep := phr.SimulateTypePREBreach(w.Service.Store, corrupted)
		tradRep := phr.SimulateTraditionalPREBreach(w.Service.Store, corrupted)
		fmt.Printf("  %-10d | %6d/%d (%5.1f%%) | %6d/%d (%5.1f%%)\n", k,
			typeRep.ExposedRecords, typeRep.TotalRecords, 100*typeRep.Fraction(),
			tradRep.ExposedRecords, tradRep.TotalRecords, 100*tradRep.Fraction())
		if k < len(cats) {
			p, err := w.Service.ProxyFor(cats[k])
			check(err)
			corrupted = append(corrupted, p)
		}
	}
	expOK, isoOK := phr.VerifyTypePREBreach(w, corrupted)
	fmt.Printf("  cryptographic verification: exposed-decryptable=%v, isolated-unopenable=%v\n", expOK, isoOK)
}

func e7() {
	header("E7 (Figure 3) — end-to-end disclosure latency vs payload size")
	f := getFixture()
	fmt.Printf("  %-10s | %-14s | %-14s | %-14s\n", "payload", "proxy", "delegatee", "end-to-end")
	for _, size := range []int{256, 4 << 10, 64 << 10, 1 << 20} {
		body := make([]byte, size)
		ct, err := hybrid.Encrypt(f.alice, body, "t", nil)
		check(err)
		var rct *hybrid.ReCiphertext
		proxyT := timeOp(func() {
			rct, err = hybrid.ReEncrypt(ct, f.rk)
			check(err)
		})
		deleT := timeOp(func() {
			_, err := hybrid.DecryptReEncrypted(f.bobKey, rct)
			check(err)
		})
		fmt.Printf("  %-10s | %14s | %14s | %14s\n", sizeName(size),
			proxyT.Round(time.Microsecond), deleT.Round(time.Microsecond),
			(proxyT + deleT).Round(time.Microsecond))
	}
	fmt.Println("  proxy cost is payload-independent (KEM-only transformation).")
}

func sizeName(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMiB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKiB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

func e9() {
	header(fmt.Sprintf("E9 — bulk-disclosure pipeline: serial vs parallel (workers = GOMAXPROCS = %d)",
		runtime.GOMAXPROCS(0)))
	fmt.Printf("  %-8s | %-14s | %-14s | %8s\n", "records", "serial", "parallel", "speedup")
	for _, n := range []int{1, 8, 64, 512} {
		f, err := phr.NewBulkFixture(n)
		check(err)
		// Warm the per-record pairing cache: both modes then measure the
		// steady-state serving path. The two modes differ only in the
		// worker count of the re-encryption pool.
		_, err = f.ReEncrypt(0)
		check(err)
		serial := timeOp(func() {
			_, err := f.ReEncrypt(1)
			check(err)
		})
		par := timeOp(func() {
			_, err := f.ReEncrypt(runtime.GOMAXPROCS(0))
			check(err)
		})
		fmt.Printf("  %-8d | %14s | %14s | %7.2fx\n", n,
			serial.Round(time.Microsecond), par.Round(time.Microsecond),
			float64(serial)/float64(par))
	}
	fmt.Println("  ordered output; plaintext equivalence is pinned by internal/phr tests.")
}

func e8() {
	header("E8 (Ablation) — collusion recovery across schemes")
	f := getFixture()

	// Ours: proxy + delegatee recover the type key, nothing more.
	tk, err := core.RecoverTypeKey(f.rk, f.bobKey)
	check(err)
	m1, err := core.DecryptWithTypeKey(tk, f.ct)
	check(err)
	otherCT, err := f.alice.Encrypt(f.msg, "other-type", nil)
	check(err)
	m2, err := core.DecryptWithTypeKey(tk, otherCT)
	check(err)
	masterLeaked := tk.K.Equal(f.aliceKey.SK)
	fmt.Printf("  ours:        type-key opens own type: %v; opens other type: %v; equals master key: %v\n",
		m1.Equal(f.msg), m2.Equal(f.msg), masterLeaked)

	// Dodis–Ivan: collusion recovers the master key.
	shares, err := dodisivan.Split(f.aliceKey, nil)
	check(err)
	recovered := dodisivan.Collude(shares)
	fmt.Printf("  dodis-ivan:  collusion recovers master key: %v\n", recovered.Equal(f.aliceKey.SK))

	// BBS: collusion recovers the scalar secret.
	aliceB, _ := bbs.KeyGen(nil)
	bobB, _ := bbs.KeyGen(nil)
	rkB, err := bbs.ReKey(aliceB, bobB)
	check(err)
	aRec, err := bbs.CollusionAttack(rkB, bobB.SK)
	check(err)
	fmt.Printf("  bbs:         collusion recovers master key: %v\n", aRec.Cmp(aliceB.SK) == 0)

	// AFGH: collusion recovers the weak key only.
	aliceA, _ := afgh.KeyGen(nil)
	bobA, _ := afgh.KeyGen(nil)
	rkA, err := afgh.ReKey(aliceA.SK, bobA.PK2)
	check(err)
	weak, err := afgh.CollusionRecoverWeakKey(rkA, bobA.SK)
	check(err)
	ct2, err := afgh.EncryptSecondLevel(aliceA, f.msg, nil)
	check(err)
	mW, err := afgh.DecryptSecondLevelWithWeakKey(weak, ct2)
	check(err)
	fmt.Printf("  afgh:        weak key opens 2nd-level: %v (1st-level stays safe)\n", mW.Equal(f.msg))
}
