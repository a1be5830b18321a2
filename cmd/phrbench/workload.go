package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"time"

	"typepre/internal/core"
	"typepre/internal/hybrid"
	"typepre/internal/ibe"
	"typepre/internal/phr"
	"typepre/internal/phr/diskstore"
)

// workloadSpec is one traffic mix over one generated corpus.
type workloadSpec struct {
	name string
	// Corpus shape, as phr.WorkloadConfig.
	patients, records, requesters, grants, body int
	disk                                        bool // diskstore backend instead of memory
	mix                                         []weighted
	// readOp and writeOp are the operations read_p50_ms and write_p50_ms
	// report: the workload's way of fetching one record and of storing.
	readOp, writeOp string
	// warmOps is how many mix operations warm-up runs after touching
	// every disclosable record once.
	warmOps int
	// referrals gives the client a pre-minted rekey toward a requester
	// without a standing grant for every (patient, category) that holds
	// records (cold-referral). Its sessions cycle through all of them, so
	// a cycle re-encrypts the whole corpus once, whatever the seed did to
	// the sizes of the categories.
	referrals bool
}

type weighted struct {
	op string
	w  int
}

// Operation kinds. A cold-referral session is three requests (install,
// one read, revoke); each is sampled on its own.
const (
	opPut             = "put"
	opDisclose        = "disclose"
	opStream          = "stream"
	opLifecycle       = "lifecycle" // install or revoke
	opAudit           = "audit"
	opSessionStream   = "session-stream"
	opSessionDisclose = "session-disclose"
)

// workloads returns the benchmark's workloads; BENCHMARK.json records why
// each exists.
func workloads() []*workloadSpec {
	return []*workloadSpec{
		{
			name: "warm-mix", patients: 6, records: 8, requesters: 4, grants: 3, body: 256,
			mix:    []weighted{{opPut, 2}, {opDisclose, 6}, {opStream, 3}, {opLifecycle, 2}, {opAudit, 2}},
			readOp: opDisclose, writeOp: opPut, warmOps: 2000,
		},
		{
			name: "cold-referral", patients: 4, records: 24, requesters: 4, grants: 3, body: 256,
			mix:    []weighted{{opSessionStream, 1}, {opSessionDisclose, 1}},
			readOp: opDisclose, writeOp: opLifecycle, warmOps: 32, referrals: true,
		},
		{
			name: "disk-ingest", patients: 16, records: 16, requesters: 4, grants: 3, body: 256, disk: true,
			mix:    []weighted{{opPut, 7}, {opDisclose, 3}},
			readOp: opDisclose, writeOp: opPut, warmOps: 2000,
		},
	}
}

func findWorkload(name string) (*workloadSpec, error) {
	for _, s := range workloads() {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("phrbench: unknown workload %q", name)
}

// draw picks the next operation by the mix weights.
func (s *workloadSpec) draw(rng *rand.Rand) request {
	total := 0
	for _, m := range s.mix {
		total += m.w
	}
	n := rng.Intn(total)
	op := s.mix[len(s.mix)-1].op
	for _, m := range s.mix {
		if n < m.w {
			op = m.op
			break
		}
		n -= m.w
	}
	return request{op: op, pick: rng.Uint64()}
}

// pair is a disclosable (record, requester). template is the corpus record
// whose sealed body the record carries: itself for corpus records, the
// re-uploaded original for disk-ingest puts.
type pair struct{ recordID, requester, template string }

// stream is a standing grant and the corpus records its category stream
// returns, in the server's (insertion) order.
type stream struct {
	grant   phr.Grant
	records []string
}

// recordSet is one (patient, category) of the corpus and its records, in
// the server's (insertion) order.
type recordSet struct {
	patientID string
	category  phr.Category
	records   []string
}

// referral is a pre-minted rekey toward a requester with no standing
// grant. Every install creates a fresh, empty prepared rekey at the proxy.
type referral struct {
	rk      *core.ReKey
	records []string // records of the rekey's (patient, category)
	gen     int      // installs so far; part of the first-touch key
}

// env is one workload's running deployment: corpus, server and the
// inputs the client draws from. Only the client's goroutine uses it while
// the client runs.
type env struct {
	spec    *workloadSpec
	w       *phr.Workload
	store   phr.Backend // as the service sees it, without the trace wrapper
	disk    *diskstore.Store
	diskDir string
	tr      *tracer // nil unless this is a traced run

	srv       *http.Server
	served    chan struct{}
	base      string
	transport *http.Transport

	keys      map[string]*ibe.PrivateKey // requester private keys, for the correctness gate
	patients  map[string]*phr.Patient
	pairs     []pair
	streams   []stream
	sets      []recordSet            // every (patient, category) that holds records
	templates []*phr.EncryptedRecord // corpus records of granted (patient, category)
	readers   map[string][]string    // template → requesters with a standing grant on it

	pool []pair // disk-ingest: every disclosable record stored so far

	touched      map[touchKey]bool
	touches      int
	firstTouches int

	userBytes int64 // plaintext bytes of every stored record

	// verified holds, per (requester, template), a disclosure already
	// decrypted and compared.
	verified map[[2]string]string
}

// touchKey is one (grant instance, sealed ciphertext): the proxy's pairing
// cache entry a re-encryption uses.
type touchKey struct {
	requester, template string
	gen                 int
}

// ingestPatient owns warm-mix's puts, so the category streams keep a
// fixed size while records are added.
const ingestPatient = "ingest@phr.example"

// setup generates the corpus, starts the server on a loopback listener and
// derives the inputs the client draws from.
func setup(spec *workloadSpec, seed int64, workdir string, traced bool) (_ *env, err error) {
	e := &env{spec: spec, keys: map[string]*ibe.PrivateKey{}, patients: map[string]*phr.Patient{},
		readers: map[string][]string{}, touched: map[touchKey]bool{}, verified: map[[2]string]string{}}
	if traced {
		e.tr = newTracer()
	}
	defer func() {
		if err != nil {
			e.close()
		}
	}()

	var backend phr.Backend = phr.NewStore()
	if spec.disk {
		if err := os.MkdirAll(workdir, 0o755); err != nil {
			return nil, err
		}
		if e.diskDir, err = os.MkdirTemp(workdir, spec.name+"-*"); err != nil {
			return nil, err
		}
		if e.disk, err = diskstore.Open(e.diskDir, diskstore.Options{Fsync: diskstore.FsyncInterval, FsyncInterval: 100 * time.Millisecond}); err != nil {
			return nil, err
		}
		backend = e.disk
	}
	e.store = backend
	if e.tr != nil {
		backend = &tracedBackend{Backend: backend, tr: e.tr}
	}

	wc := phr.DefaultWorkload()
	wc.Seed = seed
	wc.Patients, wc.RecordsPerPatient, wc.Requesters = spec.patients, spec.records, spec.requesters
	wc.GrantsPerPatient, wc.BodySize = spec.grants, spec.body
	wc.InsecureDeterministic = true
	wc.Backend = backend
	if e.w, err = phr.GenerateWorkload(wc); err != nil {
		return nil, err
	}
	w := e.w
	for id, k := range w.Requesters {
		e.keys[id] = k
	}
	for _, p := range w.Patients {
		e.patients[p.ID()] = p
	}
	for _, b := range w.Bodies {
		e.userBytes += int64(len(b))
	}

	byPC := map[string][]string{} // patient/category → granted requesters
	setOf := map[string]int{}     // patient/category → index in e.sets
	for _, g := range w.Grants {
		k := g.PatientID + "\x00" + string(g.Category)
		byPC[k] = append(byPC[k], g.RequesterID)
	}
	for _, rec := range w.Records {
		k := rec.PatientID + "\x00" + string(rec.Category)
		i, ok := setOf[k]
		if !ok {
			i = len(e.sets)
			setOf[k] = i
			e.sets = append(e.sets, recordSet{patientID: rec.PatientID, category: rec.Category})
		}
		e.sets[i].records = append(e.sets[i].records, rec.ID)
		if len(byPC[k]) > 0 {
			e.templates = append(e.templates, rec)
			e.readers[rec.ID] = byPC[k]
		}
		for _, req := range byPC[k] {
			e.pairs = append(e.pairs, pair{rec.ID, req, rec.ID})
		}
	}
	for _, g := range w.Grants {
		if i, ok := setOf[g.PatientID+"\x00"+string(g.Category)]; ok {
			e.streams = append(e.streams, stream{g, e.sets[i].records})
		}
	}
	if len(e.pairs) == 0 || len(e.streams) == 0 {
		return nil, fmt.Errorf("phrbench: %s corpus has no disclosable record", spec.name)
	}
	e.pool = append([]pair(nil), e.pairs...)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var h http.Handler = phr.NewServer(w.Service)
	if e.tr != nil {
		h = tracedHandler{h, e.tr}
	}
	e.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	e.served = make(chan struct{})
	go func() {
		defer close(e.served)
		e.srv.Serve(ln)
	}()
	e.base = "http://" + ln.Addr().String()
	e.transport = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return e, nil
}

// close stops the server, waits for it, and removes the disk store.
func (e *env) close() {
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		e.srv.Shutdown(ctx)
		cancel()
		<-e.served
		e.transport.CloseIdleConnections()
	}
	if e.disk != nil {
		e.disk.Close()
	}
	if e.diskDir != "" {
		os.RemoveAll(e.diskDir)
	}
}

// touch notes one re-encryption and whether it was the first through its
// grant instance for its ciphertext: whether the proxy had to pair.
func (e *env) touch(k touchKey) {
	e.touches++
	if !e.touched[k] {
		e.touched[k] = true
		e.firstTouches++
	}
}

// resetTouches restarts the first-touch count; the set of touched entries
// is kept, since the proxy's cache keeps them too.
func (e *env) resetTouches() { e.touches, e.firstTouches = 0, 0 }

func (e *env) firstTouchRatio() float64 {
	if e.touches == 0 {
		return 0
	}
	return float64(e.firstTouches) / float64(e.touches)
}

// client is the load-generating client and its state.
type client struct {
	e   *env
	api *phr.Client
	rec *recorder

	seq int // fresh record IDs

	// churn is the client's own grant toward a requester no read uses;
	// warm-mix installs and revokes it.
	churn          *core.ReKey
	churnInstalled bool

	refs    []*referral
	nextRef int

	// Correctness gate: every 64th disclose and 16th stream frame is
	// decrypted after the block, outside the timed path.
	discloses, frames, audits int
	pending                   []disclosed
}

// disclosed is a sampled disclosure awaiting its correctness check.
type disclosed struct {
	op        string
	rct       *hybrid.ReCiphertext
	requester string
	template  string
}

// newClient builds the client and mints its grants from a seeded source,
// so the same seed gives the same rekeys.
func (e *env) newClient(seed int64) (*client, error) {
	w := e.w
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	c := &client{e: e, rec: newRecorder(),
		api: &phr.Client{Base: e.base, HTTP: &http.Client{Transport: e.transport}}}
	pat := w.Patients[0]
	cat := w.Config.Categories[0]
	rk, err := pat.Delegator().Delegate(w.KGC2.Params(), "churn@clinic.example",
		core.VersionedType(core.Type(cat), pat.Epoch(cat)), rng)
	if err != nil {
		return nil, fmt.Errorf("phrbench: minting churn rekey: %w", err)
	}
	c.churn = rk
	var sets []recordSet
	if e.spec.referrals {
		sets = e.sets
	}
	for k, s := range sets {
		pat := e.patients[s.patientID]
		req := fmt.Sprintf("referral-%02d@clinic.example", k)
		rk, err := pat.Delegator().Delegate(w.KGC2.Params(), req,
			core.VersionedType(core.Type(s.category), pat.Epoch(s.category)), rng)
		if err != nil {
			return nil, fmt.Errorf("phrbench: minting referral rekey: %w", err)
		}
		e.keys[req] = w.KGC2.Extract(req)
		c.refs = append(c.refs, &referral{rk: rk, records: s.records})
	}
	return c, nil
}

// call runs one phr.Client call inside a client span.
func (c *client) call(name string, f func() error) error {
	defer c.e.tr.end(c.e.tr.begin(layerClient, "client."+name))
	return f()
}

// loop sends drawn requests back to back, each as soon as the previous one
// completed, until dur has passed, and returns the time it ran.
func (c *client) loop(rng *rand.Rand, dur time.Duration) time.Duration {
	start := time.Now()
	for time.Since(start) < dur {
		c.run(c.e.spec.draw(rng))
	}
	return time.Since(start)
}

// run executes one drawn request.
func (c *client) run(r request) {
	id := c.e.tr.begin(layerOp, "op."+r.op)
	defer c.e.tr.end(id)
	switch r.op {
	case opPut:
		c.put(r)
	case opDisclose:
		c.disclose(c.e.pick(r.pick), 0)
	case opStream:
		s := c.e.streams[r.pick%uint64(len(c.e.streams))]
		c.stream(s.grant, s.records, 0)
	case opLifecycle:
		c.lifecycle()
	case opAudit:
		c.audit(r)
	case opSessionStream, opSessionDisclose:
		c.session(r)
	}
}

func (e *env) pick(pick uint64) pair {
	if !e.spec.disk {
		return e.pairs[pick%uint64(len(e.pairs))]
	}
	return e.pool[pick%uint64(len(e.pool))]
}

// put re-uploads a corpus ciphertext under a fresh ID: the op measures the
// server's ingest path, not client-side sealing. disk-ingest stores it
// under the template's own patient, so it joins the disclosable pool.
func (c *client) put(r request) {
	e := c.e
	t := e.templates[r.pick%uint64(len(e.templates))]
	c.seq++
	rec := &phr.EncryptedRecord{
		ID:        fmt.Sprintf("ingest/%07d", c.seq),
		PatientID: ingestPatient,
		Category:  t.Category,
		Sealed:    t.Sealed,
	}
	if e.spec.disk {
		rec.PatientID = t.PatientID
	}
	start := time.Now()
	err := c.call(phr.EndpointPut, func() error { return c.api.PutRecord(rec) })
	c.rec.record(opPut, time.Since(start), err)
	if err != nil {
		return
	}
	e.userBytes += int64(len(e.w.Bodies[t.ID]))
	if e.spec.disk {
		for _, req := range e.readers[t.ID] {
			e.pool = append(e.pool, pair{rec.ID, req, t.ID})
		}
	}
}

func (c *client) disclose(p pair, gen int) {
	var rct *hybrid.ReCiphertext
	start := time.Now()
	err := c.call(phr.EndpointDisclose, func() (err error) {
		rct, err = c.api.Disclose(p.recordID, p.requester)
		return err
	})
	c.rec.record(opDisclose, time.Since(start), err)
	if err != nil {
		return
	}
	c.e.touch(touchKey{p.requester, p.template, gen})
	if c.discloses++; c.discloses%64 == 0 {
		c.pending = append(c.pending, disclosed{opDisclose, rct, p.requester, p.template})
	}
}

func (c *client) stream(g phr.Grant, records []string, gen int) {
	n := 0
	start := time.Now()
	err := c.call(phr.EndpointStream, func() error {
		return c.api.DiscloseCategoryStream(g.PatientID, g.Category, g.RequesterID, func(rct *hybrid.ReCiphertext) error {
			if n >= len(records) {
				return fmt.Errorf("phrbench: stream %s/%s sent more than %d frames", g.PatientID, g.Category, len(records))
			}
			if c.frames++; c.frames%16 == 0 {
				c.pending = append(c.pending, disclosed{opStream, rct, g.RequesterID, records[n]})
			}
			n++
			return nil
		})
	})
	if err == nil && n != len(records) {
		err = fmt.Errorf("phrbench: stream %s/%s sent %d frames, want %d", g.PatientID, g.Category, n, len(records))
	}
	c.rec.record(opStream, time.Since(start), err)
	for _, id := range records[:n] {
		c.e.touch(touchKey{g.RequesterID, id, gen})
	}
}

// lifecycle installs the client's churn grant, or revokes it when it is
// installed.
func (c *client) lifecycle() {
	rk := c.churn
	start := time.Now()
	var err error
	if c.churnInstalled {
		err = c.call(phr.EndpointRevoke, func() error {
			return c.api.RevokeGrant(rk.DelegatorID, phr.BaseCategory(rk.Type), rk.DelegateeID)
		})
	} else {
		err = c.call(phr.EndpointGrant, func() error { return c.api.InstallGrant(rk) })
	}
	c.rec.record(opLifecycle, time.Since(start), err)
	if err == nil {
		c.churnInstalled = !c.churnInstalled
	}
}

// audit reads a bounded tail of one proxy's log, so its cost does not grow
// with the run. Every 64th body is decoded and checked.
func (c *client) audit(r request) {
	cats := c.e.w.Config.Categories
	cat := cats[r.pick%uint64(len(cats))]
	u := c.api.Base + "/v1/audit?category=" + url.QueryEscape(string(cat)) + "&limit=256"
	var body []byte
	start := time.Now()
	err := c.call(phr.EndpointAudit, func() error {
		resp, err := c.api.HTTP.Get(u)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if body, err = io.ReadAll(resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("phrbench: audit: %s", resp.Status)
		}
		return nil
	})
	c.rec.record(opAudit, time.Since(start), err)
	if c.audits++; err == nil && c.audits%64 == 0 {
		if err := checkAuditTail(body, 256); err != nil {
			c.rec.fail(opAudit, err)
		}
	}
}

// checkAuditTail checks that an audit body is at most limit entries with
// strictly increasing sequence numbers.
func checkAuditTail(body []byte, limit int) error {
	var entries []phr.AuditEntry
	if err := json.Unmarshal(body, &entries); err != nil {
		return fmt.Errorf("phrbench: audit body: %w", err)
	}
	if len(entries) > limit {
		return fmt.Errorf("phrbench: audit returned %d entries, limit %d", len(entries), limit)
	}
	for i := 1; i < len(entries); i++ {
		if entries[i].Seq <= entries[i-1].Seq {
			return fmt.Errorf("phrbench: audit seq %d follows %d", entries[i].Seq, entries[i-1].Seq)
		}
	}
	return nil
}

// session is one cold referral: install a grant nobody has used, read
// through it once (the category stream or one record), revoke it.
func (c *client) session(r request) {
	ref := c.refs[c.nextRef%len(c.refs)]
	c.nextRef++
	ref.gen++
	rk := ref.rk
	start := time.Now()
	err := c.call(phr.EndpointGrant, func() error { return c.api.InstallGrant(rk) })
	c.rec.record(opLifecycle, time.Since(start), err)
	if err != nil {
		return
	}
	g := phr.Grant{PatientID: rk.DelegatorID, Category: phr.BaseCategory(rk.Type), RequesterID: rk.DelegateeID}
	if r.op == opSessionStream {
		c.stream(g, ref.records, ref.gen)
	} else {
		id := ref.records[r.pick%uint64(len(ref.records))]
		c.disclose(pair{id, g.RequesterID, id}, ref.gen)
	}
	start = time.Now()
	err = c.call(phr.EndpointRevoke, func() error { return c.api.RevokeGrant(g.PatientID, g.Category, g.RequesterID) })
	c.rec.record(opLifecycle, time.Since(start), err)
}

// decrypt opens a disclosed record with the requester's key and compares
// it byte for byte with the generated body.
func (e *env) decrypt(rct *hybrid.ReCiphertext, requester, template string) error {
	body, err := hybrid.DecryptReEncrypted(e.keys[requester], rct)
	if err != nil {
		return fmt.Errorf("phrbench: decrypting %s for %s: %w", template, requester, err)
	}
	if !bytes.Equal(body, e.w.Bodies[template]) {
		return fmt.Errorf("phrbench: %s decrypted for %s differs from the generated body", template, requester)
	}
	return nil
}

// check verifies a sampled disclosure. The proxy's output is a function of
// the rekey and the sealed record alone, so a disclosure byte-identical to
// one already decrypted and compared is correct too; only the first per
// (requester, ciphertext), or one that differs from it, pays a decryption.
func (e *env) check(ch disclosed) error {
	enc := string(ch.rct.Marshal())
	k := [2]string{ch.requester, ch.template}
	if e.verified[k] == enc {
		return nil
	}
	if err := e.decrypt(ch.rct, ch.requester, ch.template); err != nil {
		return err
	}
	e.verified[k] = enc
	return nil
}

// collect runs the client's deferred checks, counting a failed check as a
// failed operation, and returns its samples, leaving it an empty recorder.
func (c *client) collect() *recorder {
	for _, ch := range c.pending {
		if err := c.e.check(ch); err != nil {
			c.rec.fail(ch.op, err)
		}
	}
	c.pending = nil
	rec := c.rec
	c.rec = newRecorder()
	return rec
}
