package main

import (
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"typepre/internal/phr"
)

// Span layers, outermost first. A span's parent is the open span of the
// layer above it. That is exact only while one operation is in flight,
// which holds because the benchmark runs a single client: spans then nest
// by containment.
const (
	layerOp     = iota // one drawn operation, client-side crypto included
	layerClient        // one phr.Client call
	layerServer        // one request inside phr.Server.ServeHTTP
	layerStore         // one phr.Backend call
	numLayers
)

var layerNames = [numLayers]string{"op", "client", "server", "store"}

type span struct {
	name       string
	layer      int
	start, end time.Duration // since the tracer's epoch
	id, parent int32         // id is index+1; parent 0 means none
	req        int32         // operation the span belongs to
}

// tracer keeps spans in memory and writes them out once the run ends. It
// records only while on is set; otherwise every hook is one atomic load.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	req   atomic.Int32
	open  [numLayers]atomic.Int32

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span on layer and returns its id (0 when tracing is off).
// A new operation span starts a new request id.
func (t *tracer) begin(layer int, name string) int32 {
	if t == nil || !t.on.Load() {
		return 0
	}
	if layer == layerOp {
		t.req.Add(1)
	}
	var parent int32
	if layer > layerOp {
		parent = t.open[layer-1].Load()
	}
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		name: name, layer: layer, start: time.Since(t.epoch), end: -1,
		id: id, parent: parent, req: t.req.Load(),
	})
	t.mu.Unlock()
	t.open[layer].Store(id)
	return id
}

func (t *tracer) end(id int32) {
	if id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	s := &t.spans[id-1]
	s.end = now
	t.mu.Unlock()
	t.open[s.layer].CompareAndSwap(id, 0)
}

// traceEvent is one Chrome trace-event "complete" event (ph "X"); chrome's
// about:tracing and Perfetto load the file as written. Times are in µs.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args traceEventArgs `json:"args"`
}

type traceEventArgs struct {
	ID     int32 `json:"id"`
	Parent int32 `json:"parent"`
	Req    int32 `json:"req"`
}

type traceFile struct {
	TraceEvents []traceEvent `json:"traceEvents"`
}

// write saves every closed span to path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	events := make([]traceEvent, 0, len(t.spans))
	for _, s := range t.spans {
		if s.end < 0 {
			continue
		}
		events = append(events, traceEvent{
			Name: s.name, Cat: layerNames[s.layer], Ph: "X",
			Ts: us(s.start), Dur: us(s.end - s.start), Pid: 1, Tid: s.layer + 1,
			Args: traceEventArgs{ID: s.id, Parent: s.parent, Req: s.req},
		})
	}
	t.mu.Unlock()
	data, err := json.Marshal(traceFile{TraceEvents: events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// layerSplit is the per-layer breakdown of the traced phase.
type layerSplit struct {
	// Medians over disclose requests, µs: the client call, the server
	// handler, the store calls inside it, and the two differences.
	discloseClient, discloseServer, discloseStore, discloseHTTP, discloseSelf float64
	getsPerDisclose                                                           float64
	// Means over every client call, µs; client = http + self + store.
	opClient, opHTTP, opSelf, opStore float64
}

// split attributes the traced client calls to the layers below them.
func (t *tracer) split() layerSplit {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int32][]int32{}
	for _, s := range t.spans {
		if s.parent != 0 && s.end >= 0 {
			children[s.parent] = append(children[s.parent], s.id)
		}
	}
	dur := func(id int32) float64 { s := t.spans[id-1]; return us(s.end - s.start) }

	var ls layerSplit
	var dClient, dServer, dStore, dHTTP, dSelf []float64
	var sumClient, sumServer, sumStore float64
	var calls, gets, discloses int
	for _, s := range t.spans {
		if s.layer != layerClient || s.end < 0 {
			continue
		}
		c := dur(s.id)
		var srv, store float64
		var srvName string
		var nGets int
		for _, ch := range children[s.id] {
			srv += dur(ch)
			srvName = t.spans[ch-1].name
			for _, st := range children[ch] {
				store += dur(st)
				if t.spans[st-1].name == "store.get" {
					nGets++
				}
			}
		}
		calls++
		sumClient += c
		sumServer += srv
		sumStore += store
		if srvName == "server."+phr.EndpointDisclose {
			discloses++
			gets += nGets
			dClient = append(dClient, c)
			dServer = append(dServer, srv)
			dStore = append(dStore, store)
			dHTTP = append(dHTTP, c-srv)
			dSelf = append(dSelf, srv-store)
		}
	}
	// With no calls or no disclosures these are NaN, which the run
	// reports as a metric without samples.
	n := float64(calls)
	ls.opClient = sumClient / n
	ls.opHTTP = (sumClient - sumServer) / n
	ls.opSelf = (sumServer - sumStore) / n
	ls.opStore = sumStore / n
	ls.discloseClient = median(dClient)
	ls.discloseServer = median(dServer)
	ls.discloseStore = median(dStore)
	ls.discloseHTTP = median(dHTTP)
	ls.discloseSelf = median(dSelf)
	ls.getsPerDisclose = float64(gets) / float64(discloses)
	return ls
}

// tracedHandler opens a server span around phr.Server.ServeHTTP.
type tracedHandler struct {
	h  http.Handler
	tr *tracer
}

func (th tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := th.tr.begin(layerServer, "server."+endpointOf(r))
	// Deferred so the span also closes when a streaming handler aborts
	// the connection with panic(http.ErrAbortHandler).
	defer th.tr.end(id)
	th.h.ServeHTTP(w, r)
}

// endpointOf names a request by the server's own endpoint labels.
func endpointOf(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/records":
		return phr.EndpointPut
	case strings.HasPrefix(p, "/v1/records/"):
		return phr.EndpointDisclose
	case strings.HasPrefix(p, "/v1/patients/"):
		return phr.EndpointStream
	case r.Method == http.MethodPost && p == "/v1/grants":
		return phr.EndpointGrant
	case r.Method == http.MethodDelete && p == "/v1/grants":
		return phr.EndpointRevoke
	case p == "/v1/audit":
		return phr.EndpointAudit
	}
	return "other"
}

// tracedBackend opens a store span around every payload-carrying
// phr.Backend call, so store time stays attributed to the store whichever
// of them the service uses; the index-only queries pass through untraced.
type tracedBackend struct {
	phr.Backend
	tr *tracer
}

func (b *tracedBackend) Put(r *phr.EncryptedRecord) error {
	defer b.tr.end(b.tr.begin(layerStore, "store.put"))
	return b.Backend.Put(r)
}

func (b *tracedBackend) Replace(r *phr.EncryptedRecord) error {
	defer b.tr.end(b.tr.begin(layerStore, "store.replace"))
	return b.Backend.Replace(r)
}

func (b *tracedBackend) Get(id string) (*phr.EncryptedRecord, error) {
	defer b.tr.end(b.tr.begin(layerStore, "store.get"))
	return b.Backend.Get(id)
}

func (b *tracedBackend) Delete(id string) error {
	defer b.tr.end(b.tr.begin(layerStore, "store.delete"))
	return b.Backend.Delete(id)
}

func (b *tracedBackend) ListByPatient(patientID string) ([]*phr.EncryptedRecord, error) {
	defer b.tr.end(b.tr.begin(layerStore, "store.list"))
	return b.Backend.ListByPatient(patientID)
}

func (b *tracedBackend) ListByPatientCategory(patientID string, c phr.Category) ([]*phr.EncryptedRecord, error) {
	defer b.tr.end(b.tr.begin(layerStore, "store.list"))
	return b.Backend.ListByPatientCategory(patientID, c)
}
