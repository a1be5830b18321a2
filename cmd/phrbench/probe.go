package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"time"

	"typepre/internal/bn254"
	"typepre/internal/core"
	"typepre/internal/hybrid"
	"typepre/internal/phr"
)

// probe calls f at least minN times, and more while the budget lasts, up
// to maxN; it returns the median call time in µs.
func probe(minN, maxN int, budget time.Duration, f func() error) (float64, error) {
	var samples []float64
	start := time.Now()
	for i := 0; i < maxN && (i < minN || time.Since(start) < budget); i++ {
		t := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		samples = append(samples, us(time.Since(t)))
	}
	return median(samples), nil
}

// probes times direct calls into each layer's functions on this
// workload's own inputs: a record of the corpus and a grant on it.
func (e *env) probes(seed int64) (map[string]float64, error) {
	w := e.w
	rng := rand.New(rand.NewSource(seed*104729 + 3))
	p := e.pairs[0]
	var rec *phr.EncryptedRecord
	for _, r := range w.Records {
		if r.ID == p.template {
			rec = r
		}
	}
	pat := e.patients[rec.PatientID]
	typ := core.VersionedType(core.Type(rec.Category), pat.Epoch(rec.Category))
	params := w.KGC2.Params()
	rk, err := pat.Delegator().Delegate(params, p.requester, typ, rng)
	if err != nil {
		return nil, err
	}
	ct := rec.Sealed
	prk := core.PrepareReKey(rk)
	rct, err := hybrid.ReEncryptPrepared(ct, prk)
	if err != nil {
		return nil, err
	}
	sealed := ct.Marshal()
	frame := make([]byte, 0, 4096)

	// The proxy with the longest audit log: appends and tails run on a log
	// of the run's length.
	var audit *phr.AuditLog
	for _, px := range w.Service.Proxies() {
		if audit == nil || px.Audit().Len() > audit.Len() {
			audit = px.Audit()
		}
	}
	entry := phr.AuditEntry{Proxy: "probe", PatientID: rec.PatientID, RecordID: rec.ID,
		Category: rec.Category, Requester: p.requester, Outcome: phr.OutcomeGranted}

	stored, err := e.storedBytes()
	if err != nil {
		return nil, err
	}
	out := map[string]float64{"store.bytes_per_user_byte": stored / float64(e.userBytes)}
	puts := 0
	const cheap, costly = 200, 15
	budget := 40 * time.Millisecond
	for _, pr := range []struct {
		name string
		n    int
		f    func() error
	}{
		{"bn254.pair_us", costly, func() error { bn254.Pair(rk.RK, ct.KEM.C1); return nil }},
		{"core.reencrypt_miss_us", costly, func() error { _, err := core.PrepareReKey(rk).ReEncrypt(ct.KEM); return err }},
		{"core.reencrypt_hit_us", cheap, func() error { _, err := prk.ReEncrypt(ct.KEM); return err }},
		{"hybrid.unmarshal_ct_us", costly, func() error { _, err := hybrid.UnmarshalCiphertext(sealed); return err }},
		{"hybrid.frame_us", cheap, func() error { frame = rct.AppendTo(frame[:0]); return nil }},
		{"service.request_us", cheap, func() error { _, err := w.Service.Request(p.recordID, p.requester); return err }},
		{"audit.append_us", cheap, func() error { audit.Append(entry); return nil }},
		{"audit.tail_us", cheap, func() error { audit.Tail(256); return nil }},
		{"store.get_us", cheap, func() error { _, err := e.store.Get(p.recordID); return err }},
		{"store.list_us", cheap, func() error { _, err := e.store.ListByPatientCategory(rec.PatientID, rec.Category); return err }},
		{"store.put_us", cheap, func() error {
			puts++
			return e.store.Put(&phr.EncryptedRecord{ID: fmt.Sprintf("probe/%07d", puts),
				PatientID: ingestPatient, Category: rec.Category, Sealed: ct})
		}},
	} {
		v, err := probe(pr.n, 4*pr.n, budget, pr.f)
		if err != nil {
			return nil, fmt.Errorf("phrbench: probe %s: %w", pr.name, err)
		}
		out[pr.name] = v
	}
	return out, nil
}

// storedBytes is what the store holds for its records: the disk store's
// payload bytes, or the storage wire form of every record in memory.
func (e *env) storedBytes() (float64, error) {
	if e.disk != nil {
		st := e.disk.Stats()
		return float64(st.LiveBytes + st.GarbageBytes), nil
	}
	var n int
	var buf []byte
	for _, patient := range e.store.Patients() {
		recs, err := e.store.ListByPatient(patient)
		if err != nil {
			return 0, err
		}
		for _, r := range recs {
			buf = phr.MarshalRecord(buf[:0], r)
			n += len(buf)
		}
	}
	return float64(n), nil
}

// runtimeCounters reads the process's cumulative heap allocation and
// completed GC cycles.
func runtimeCounters() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// liveHeapMB collects garbage and returns the live heap in MiB. It collects
// twice: the first collection only moves sync.Pool contents to the pools'
// victim caches, whose size depends on how the requests happened to overlap.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
