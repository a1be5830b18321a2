// Command phrload drives the SIGKILL crash drill of the PHR disclosure
// service (docs/storage.md) against a live phrserver at -addr. It has two
// jobs:
//
//   - Load phase (the default): upload a deterministic phr.GenerateWorkload
//     corpus and its grants, then run a fixed operation mix for -duration.
//     It prints total ops, acknowledged puts and failures, and exits
//     non-zero if any operation failed or no put was acknowledged.
//   - Spotcheck (-spotcheck): after the server was killed and restarted on
//     the same directory, require at least -min-records records on the
//     server, regenerate the same corpus, re-install its grants, and
//     disclose and byte-compare every record a grant covers.
//
// The corpus shape and the worker count are constants, so a load run and
// the later spotcheck always regenerate the same corpus. phrload reports no
// latencies; cmd/phrbench is the service benchmark.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"typepre/internal/core"
	"typepre/internal/hybrid"
	"typepre/internal/phr"
)

// Corpus shape and load concurrency.
const (
	corpusPatients   = 6
	corpusRecords    = 8 // per patient
	corpusRequesters = 4
	corpusGrants     = 3 // per patient
	corpusBody       = 256
	corpusSeed       = 1
	workers          = 4
)

// loadIDPrefix starts the ID of every record the load phase puts, keeping
// them apart from the corpus records the spotcheck verifies.
const loadIDPrefix = "load/"

// The load phase's operations and their fixed weights: an op is drawn with
// probability weight/total.
const (
	opPut = iota
	opDisclose
	opStream
	opGrant
	opRevoke
	opAudit
	numOps
)

var (
	opNames   = [numOps]string{"put", "disclose", "stream", "grant", "revoke", "audit"}
	opWeights = [numOps]int{2, 6, 3, 1, 1, 2}
)

func pickOp(rng *rand.Rand) int {
	total := 0
	for _, w := range opWeights {
		total += w
	}
	n := rng.Intn(total)
	for op, w := range opWeights {
		if n < w {
			return op
		}
		n -= w
	}
	return numOps - 1
}

// disclosePair is a (record, requester) pair an installed grant covers.
type disclosePair struct{ recordID, requester string }

// corpus regenerates the deterministic corpus and lists its disclosable
// pairs.
func corpus() (*phr.Workload, []disclosePair, error) {
	wc := phr.DefaultWorkload()
	wc.Seed = corpusSeed
	wc.Patients = corpusPatients
	wc.Requesters = corpusRequesters
	wc.RecordsPerPatient = corpusRecords
	wc.GrantsPerPatient = corpusGrants
	wc.BodySize = corpusBody
	wc.InsecureDeterministic = true
	w, err := phr.GenerateWorkload(wc)
	if err != nil {
		return nil, nil, err
	}
	byPC := map[string][]string{}
	for _, g := range w.Grants {
		k := g.PatientID + "\x00" + string(g.Category)
		byPC[k] = append(byPC[k], g.RequesterID)
	}
	var pairs []disclosePair
	for _, rec := range w.Records {
		for _, req := range byPC[rec.PatientID+"\x00"+string(rec.Category)] {
			pairs = append(pairs, disclosePair{rec.ID, req})
		}
	}
	return w, pairs, nil
}

// delegate mints pat's rekey toward requester for category c.
func delegate(w *phr.Workload, pat *phr.Patient, c phr.Category, requester string) (*core.ReKey, error) {
	return pat.Delegator().Delegate(w.KGC2.Params(), requester,
		core.VersionedType(core.Type(c), pat.Epoch(c)), nil)
}

// installGrants mints a fresh rekey for every corpus grant and installs it
// on the server: the workload installed its grants only into its own
// in-process proxies, and a restarted server has lost them.
func installGrants(client *phr.Client, w *phr.Workload) error {
	patients := map[string]*phr.Patient{}
	for _, pat := range w.Patients {
		patients[pat.ID()] = pat
	}
	for _, g := range w.Grants {
		rk, err := delegate(w, patients[g.PatientID], g.Category, g.RequesterID)
		if err != nil {
			return fmt.Errorf("phrload: minting rekey for grant %v: %w", g, err)
		}
		if err := client.InstallGrant(rk); err != nil {
			return fmt.Errorf("phrload: installing grant %v: %w", g, err)
		}
	}
	return nil
}

func newClient(base string) *phr.Client {
	return &phr.Client{Base: strings.TrimRight(base, "/"), HTTP: &http.Client{Transport: &http.Transport{
		MaxIdleConns:        2 * workers,
		MaxIdleConnsPerHost: 2 * workers,
	}}}
}

// churnGrant is one worker's install/revoke target, toward a requester no
// disclose pair uses, so grant churn never 403s the read ops.
type churnGrant struct {
	patient   string
	category  phr.Category
	requester string
	rekey     *core.ReKey
	installed bool
}

// loader is one load phase against one server.
type loader struct {
	client *phr.Client
	w      *phr.Workload
	pairs  []disclosePair
	churn  []*churnGrant
	nonce  string

	acked, failed [numOps]atomic.Uint64

	errOnce  sync.Once
	firstErr string
}

// runLoad uploads the corpus and its grants to the server at base, then
// runs the operation mix for d. It fails if any operation failed or no put
// was acknowledged.
func runLoad(base string, d time.Duration) error {
	w, pairs, err := corpus()
	if err != nil {
		return err
	}
	l := &loader{
		client: newClient(base),
		w:      w,
		pairs:  pairs,
		nonce:  fmt.Sprintf("%x", time.Now().UnixNano()),
	}
	for _, rec := range w.Records {
		if err := l.client.PutRecord(rec); err != nil {
			return fmt.Errorf("phrload: uploading %s: %w", rec.ID, err)
		}
	}
	if err := installGrants(l.client, w); err != nil {
		return err
	}
	for i := 0; i < workers; i++ {
		pat := w.Patients[i%len(w.Patients)]
		c := w.Config.Categories[i%len(w.Config.Categories)]
		req := fmt.Sprintf("churn-%03d@clinic.example", i)
		rk, err := delegate(w, pat, c, req)
		if err != nil {
			return fmt.Errorf("phrload: minting churn rekey: %w", err)
		}
		l.churn = append(l.churn, &churnGrant{patient: pat.ID(), category: c, requester: req, rekey: rk})
	}

	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			l.worker(wi, deadline)
		}(wi)
	}
	wg.Wait()

	var total, failures uint64
	for op := range opNames {
		total += l.acked[op].Load() + l.failed[op].Load()
		failures += l.failed[op].Load()
	}
	puts := l.acked[opPut].Load()
	fmt.Printf("load: %d ops, %d puts acknowledged, %d failures\n", total, puts, failures)
	switch {
	case failures > 0:
		return fmt.Errorf("phrload: %d operations failed (first: %s)", failures, l.firstErr)
	case puts == 0:
		return fmt.Errorf("phrload: no put was acknowledged")
	}
	return nil
}

// worker runs the op loop until the deadline. The worker index selects the
// churn grant; the per-worker rng keeps op choice contention-free.
func (l *loader) worker(wi int, deadline time.Time) {
	rng := rand.New(rand.NewSource(corpusSeed*1009 + int64(wi)))
	cg := l.churn[wi]
	var seq int
	for time.Now().Before(deadline) {
		op := pickOp(rng)
		// A revoke with nothing installed would be a guaranteed 404; run
		// the install that must precede it instead. Equal weights make the
		// pair alternate.
		if op == opRevoke && !cg.installed {
			op = opGrant
		}
		if err := l.do(op, wi, &seq, rng, cg); err != nil {
			l.failed[op].Add(1)
			l.errOnce.Do(func() { l.firstErr = opNames[op] + ": " + err.Error() })
		} else {
			l.acked[op].Add(1)
		}
	}
}

func (l *loader) do(op, wi int, seq *int, rng *rand.Rand, cg *churnGrant) error {
	switch op {
	case opPut:
		// Reuse one pre-sealed container under fresh IDs: the disclose and
		// stream working set stays fixed while the store grows.
		template := l.w.Records[wi%len(l.w.Records)]
		*seq++
		return l.client.PutRecord(&phr.EncryptedRecord{
			ID:        fmt.Sprintf("%s%s/w%02d-%06d", loadIDPrefix, l.nonce, wi, *seq),
			PatientID: "loadgen@phr.example",
			Category:  template.Category,
			Sealed:    template.Sealed,
		})
	case opDisclose:
		pair := l.pairs[rng.Intn(len(l.pairs))]
		_, err := l.client.Disclose(pair.recordID, pair.requester)
		return err
	case opStream:
		g := l.w.Grants[rng.Intn(len(l.w.Grants))]
		return l.client.DiscloseCategoryStream(g.PatientID, g.Category, g.RequesterID,
			func(*hybrid.ReCiphertext) error { return nil })
	case opGrant:
		if err := l.client.InstallGrant(cg.rekey); err != nil {
			return err
		}
		cg.installed = true
		return nil
	case opRevoke:
		if err := l.client.RevokeGrant(cg.patient, cg.category, cg.requester); err != nil {
			return err
		}
		cg.installed = false
		return nil
	default: // opAudit
		// Raw GET with a discarded body: the client does not decode an
		// ever-growing log.
		c := l.w.Config.Categories[rng.Intn(len(l.w.Config.Categories))]
		resp, err := l.client.HTTP.Get(l.client.Base + "/v1/audit?category=" + url.QueryEscape(string(c)))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("audit: %s", resp.Status)
		}
		return nil
	}
}

// runSpotcheck verifies a restarted server end to end: it must still hold
// at least minRecords records, and every disclosable corpus record must
// disclose and decrypt to the exact plaintext generated before the
// restart. Grants are re-installed first: they are proxy-local state and
// are expected to be lost on restart, unlike records.
func runSpotcheck(base string, minRecords int) error {
	w, pairs, err := corpus()
	if err != nil {
		return err
	}
	client := newClient(base)

	sm, err := client.Metrics()
	if err != nil {
		return fmt.Errorf("phrload: reading server metrics: %w", err)
	}
	if sm.StoreRecords < minRecords {
		return fmt.Errorf("phrload: server holds %d records, want >= %d — acknowledged writes were lost",
			sm.StoreRecords, minRecords)
	}
	if err := installGrants(client, w); err != nil {
		return err
	}
	for _, p := range pairs {
		rct, err := client.Disclose(p.recordID, p.requester)
		if err != nil {
			return fmt.Errorf("phrload: disclosing %s to %s after restart: %w", p.recordID, p.requester, err)
		}
		body, err := hybrid.DecryptReEncrypted(w.Requesters[p.requester], rct)
		if err != nil {
			return fmt.Errorf("phrload: decrypting %s after restart: %w", p.recordID, err)
		}
		if !bytes.Equal(body, w.Bodies[p.recordID]) {
			return fmt.Errorf("phrload: record %s decrypted to different plaintext after restart", p.recordID)
		}
	}
	fmt.Printf("spotcheck ok: %d records on server (>= %d required), %d disclosures decrypted byte-identical\n",
		sm.StoreRecords, minRecords, len(pairs))
	return nil
}

func main() {
	addr := flag.String("addr", "", "base URL of a running phrserver (e.g. http://127.0.0.1:8080)")
	duration := flag.Duration("duration", 10*time.Second, "length of the load phase")
	spotcheck := flag.Bool("spotcheck", false, "verify a restarted server against the regenerated corpus instead of loading it")
	minRecords := flag.Int("min-records", 0, "with -spotcheck: fail unless the server holds at least this many records")
	flag.Parse()

	var err error
	switch {
	case *addr == "":
		err = fmt.Errorf("phrload: -addr is required")
	case *spotcheck:
		err = runSpotcheck(*addr, *minRecords)
	default:
		err = runLoad(*addr, *duration)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
