package phr

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"time"

	"typepre/internal/core"
	"typepre/internal/hybrid"
	"typepre/internal/loadstat"
)

// HTTP API for the PHR disclosure service: the deployable form of the §5
// architecture. The server holds only what the semi-trusted parties hold —
// sealed records and re-encryption grants — and every response carrying
// record content is a ciphertext for exactly one requester.
//
//	POST   /v1/records                      upload a sealed record
//	GET    /v1/records/{id}?requester=R     disclose one record toward R
//	GET    /v1/patients/{p}/categories/{c}?requester=R   bulk disclosure
//	POST   /v1/patients/{p}/breakglass?requester=R&reason=...   emergency access
//	POST   /v1/grants                       install a marshaled rekey
//	DELETE /v1/grants?patient=&category=&requester=      revoke
//	GET    /v1/audit?category=C[&limit=N]   audit entries (JSON)
//	GET    /v1/metrics                      per-endpoint server metrics (JSON)
//
// Binary payloads use application/octet-stream with the package's own
// framing; metadata rides in headers (X-Record-*). Full endpoint,
// wire-format and trust-model documentation lives in docs/httpapi.md.

// Header names of the record-upload metadata.
const (
	HeaderRecordID       = "X-Record-Id"
	HeaderRecordPatient  = "X-Record-Patient"
	HeaderRecordCategory = "X-Record-Category"
)

// Request-body ceilings. Oversized uploads are rejected with 413, never
// silently truncated.
const (
	MaxRecordBytes = 16 << 20 // sealed record upload
	MaxGrantBytes  = 1 << 20  // marshaled rekey upload
)

// Endpoint labels of the server's own instrumentation, as reported per
// endpoint by GET /v1/metrics.
const (
	EndpointPut        = "put"
	EndpointDisclose   = "disclose"
	EndpointStream     = "disclose-category-stream"
	EndpointBreakGlass = "break-glass"
	EndpointGrant      = "install-grant"
	EndpointRevoke     = "revoke"
	EndpointAudit      = "audit"
)

// Server exposes a Service over HTTP.
type Server struct {
	svc   *Service
	mux   *http.ServeMux
	start time.Time

	// Per-endpoint request instrumentation; served by GET /v1/metrics.
	metrics  *loadstat.Collector
	inflight loadstat.Gauge
}

// NewServer wraps a service in the HTTP API.
func NewServer(svc *Service) *Server {
	s := &Server{
		svc:     svc,
		mux:     http.NewServeMux(),
		start:   time.Now(),
		metrics: loadstat.NewCollector(),
	}
	s.handle("POST /v1/records", EndpointPut, s.handlePutRecord)
	s.handle("GET /v1/records/{id...}", EndpointDisclose, s.handleDisclose)
	s.handle("GET /v1/patients/{patient}/categories/{category}", EndpointStream, s.handleDiscloseCategory)
	s.handle("POST /v1/patients/{patient}/breakglass", EndpointBreakGlass, s.handleBreakGlass)
	s.handle("POST /v1/grants", EndpointGrant, s.handleInstallGrant)
	s.handle("DELETE /v1/grants", EndpointRevoke, s.handleRevokeGrant)
	s.handle("GET /v1/audit", EndpointAudit, s.handleAudit)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// statusWriter captures the response status for instrumentation. It
// always implements http.Flusher — flushing degrades to a no-op when the
// underlying writer cannot — so the streaming handlers behave identically
// wrapped or not.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// handle registers a handler wrapped with per-endpoint instrumentation:
// an in-flight gauge around the call and a latency/error observation per
// request. The deferred Record also runs when a streaming handler aborts
// the connection via panic(http.ErrAbortHandler).
func (s *Server) handle(pattern, endpoint string, h http.HandlerFunc) {
	rec := s.metrics.Endpoint(endpoint)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		begin := time.Now()
		s.inflight.Inc()
		defer func() {
			s.inflight.Dec()
			rec.Record(time.Since(begin), sw.status >= 400)
		}()
		h(sw, r)
	})
}

// ServerMetrics is the GET /v1/metrics response body.
type ServerMetrics struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	InFlight      int64   `json:"in_flight"`
	InFlightHigh  int64   `json:"in_flight_high"`
	// StoreRecords is the backend's current record count — the durability
	// gate the crash-recovery CI job compares across a SIGKILL/restart.
	StoreRecords int                      `json:"store_records"`
	Endpoints    []loadstat.EndpointStats `json:"endpoints"`
	// Audit sizes each proxy's audit log, ordered by category.
	Audit []AuditLogStats `json:"audit"`
	// Cache counts each proxy's c2′ cache traffic, ordered by category.
	Cache []CacheStats `json:"cache"`
}

// CacheStats counts one proxy's re-encryption cache traffic since it
// started: records served from a grant's cache of finished c2′ encodings
// (hits), records that paid a pairing (misses), and entries evicted from a
// full cache.
type CacheStats struct {
	Category  Category `json:"category"`
	Proxy     string   `json:"proxy"`
	Hits      uint64   `json:"hits"`
	Misses    uint64   `json:"misses"`
	Evictions uint64   `json:"evictions"`
}

// AuditLogStats sizes one proxy's audit log: its entry count and the byte
// length of its JSON array body (brackets excluded), the bulk of what the
// log holds in memory.
type AuditLogStats struct {
	Category Category `json:"category"`
	Proxy    string   `json:"proxy"`
	Entries  int      `json:"entries"`
	Bytes    int      `json:"bytes"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	uptime := time.Since(s.start)
	m := ServerMetrics{
		UptimeSeconds: uptime.Seconds(),
		InFlight:      s.inflight.Value(),
		InFlightHigh:  s.inflight.High(),
		StoreRecords:  s.svc.Store.Count(),
		Endpoints:     s.metrics.Snapshot(uptime),
	}
	for c, p := range s.svc.Proxies() {
		entries, size := p.Audit().Size()
		m.Audit = append(m.Audit, AuditLogStats{Category: c, Proxy: p.Name(), Entries: entries, Bytes: size})
		hits, misses, evictions := p.cache.Counts()
		m.Cache = append(m.Cache, CacheStats{Category: c, Proxy: p.Name(), Hits: hits, Misses: misses, Evictions: evictions})
	}
	slices.SortFunc(m.Audit, func(a, b AuditLogStats) int { return cmp.Compare(a.Category, b.Category) })
	slices.SortFunc(m.Cache, func(a, b CacheStats) int { return cmp.Compare(a.Category, b.Category) })
	buf, err := json.Marshal(m)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf)
}

func httpError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrNotFound):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, ErrNoGrant), errors.Is(err, ErrStaleGrant):
		http.Error(w, err.Error(), http.StatusForbidden)
	case errors.Is(err, ErrDuplicate):
		http.Error(w, err.Error(), http.StatusConflict)
	case errors.Is(err, ErrNoProxy):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, ErrStorage):
		// The request was fine; the storage layer failed it.
		http.Error(w, err.Error(), http.StatusInternalServerError)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

// readBody reads a body whose declared length is n (-1 when unknown)
// into one buffer of that length when n is within limit; otherwise it
// reads at most limit+1 bytes, so a caller can tell "exactly limit" apart
// from "over".
func readBody(r io.Reader, n, limit int64) ([]byte, error) {
	if n >= 0 && n <= limit {
		body := make([]byte, n)
		_, err := io.ReadFull(r, body)
		return body, err
	}
	return io.ReadAll(io.LimitReader(r, limit+1))
}

// readLimitedBody reads at most limit bytes of the request body. A body
// that exceeds the limit gets a 413; a transport error gets a 400. On
// failure the response has been written and the caller must return.
func readLimitedBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	body, err := readBody(r.Body, r.ContentLength, limit)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil, false
	}
	if int64(len(body)) > limit {
		http.Error(w, fmt.Sprintf("request body exceeds %d bytes", limit),
			http.StatusRequestEntityTooLarge)
		return nil, false
	}
	return body, true
}

func (s *Server) handlePutRecord(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get(HeaderRecordID)
	patient := r.Header.Get(HeaderRecordPatient)
	category := r.Header.Get(HeaderRecordCategory)
	if id == "" || patient == "" || category == "" {
		http.Error(w, "missing record metadata headers", http.StatusBadRequest)
		return
	}
	body, ok := readLimitedBody(w, r, MaxRecordBytes)
	if !ok {
		return
	}
	sealed, err := hybrid.UnmarshalCiphertext(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// The sealed wire type may carry a rotation-epoch suffix; the routing
	// category is always the logical one.
	if Category(category) != BaseCategory(sealed.KEM.Type) {
		http.Error(w, "category header does not match sealed type", http.StatusBadRequest)
		return
	}
	rec := &EncryptedRecord{
		ID:        id,
		PatientID: patient,
		Category:  Category(category),
		CreatedAt: time.Now(),
		Sealed:    sealed,
	}
	if err := s.svc.Store.Put(rec); err != nil {
		httpError(w, err)
		return
	}
	w.WriteHeader(http.StatusCreated)
}

// handleDisclose writes the one record's container straight from the
// frame buffer of the disclosure engine, with its Content-Length, so a
// client can read it into a buffer of the right size.
func (s *Server) handleDisclose(w http.ResponseWriter, r *http.Request) {
	recordID := r.PathValue("id")
	requester := r.URL.Query().Get("requester")
	if requester == "" {
		http.Error(w, "missing requester", http.StatusBadRequest)
		return
	}
	wrote := false
	err := s.svc.discloseRecord(recordID, requester, func(frame []byte, _ bool) error {
		wrote = true
		container := frame[hybrid.FrameHeader:]
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(len(container)))
		_, err := w.Write(container)
		return err
	})
	if err != nil && !wrote {
		httpError(w, err)
	}
}

func (s *Server) handleDiscloseCategory(w http.ResponseWriter, r *http.Request) {
	patient := r.PathValue("patient")
	category := Category(r.PathValue("category"))
	requester := r.URL.Query().Get("requester")
	if requester == "" {
		http.Error(w, "missing requester", http.StatusBadRequest)
		return
	}
	proxy, err := s.svc.ProxyFor(category)
	if err != nil {
		httpError(w, err)
		return
	}
	s.streamFrames(w, func(frame func([]byte, bool) error) error {
		return proxy.DiscloseCategoryStream(s.svc.Store, patient, category, requester, frame)
	})
}

// handleBreakGlass is the wire form of Proxy.BreakGlass on the emergency
// proxy: bulk disclosure through the responder's standing grant, streamed
// with the same framing as the category endpoint. The mandatory reason
// rides in the query; its absence is a 400 before any audit traffic.
func (s *Server) handleBreakGlass(w http.ResponseWriter, r *http.Request) {
	patient := r.PathValue("patient")
	q := r.URL.Query()
	requester, reason := q.Get("requester"), q.Get("reason")
	if requester == "" {
		http.Error(w, "missing requester", http.StatusBadRequest)
		return
	}
	proxy, err := s.svc.ProxyFor(CategoryEmergency)
	if err != nil {
		httpError(w, err)
		return
	}
	s.streamFrames(w, func(frame func([]byte, bool) error) error {
		return proxy.BreakGlass(s.svc.Store, patient, CategoryEmergency, requester, reason, frame)
	})
}

// streamFrames runs a bulk-disclosure producer, writing its
// length-prefixed frames as the engine emits them, and flushing only when
// the next frame is not ready: a warm stream leaves in as few writes as
// the response buffer allows, while a cold one puts each frame on the wire
// before it waits for the next record's pairing. The server holds at most
// a pool's worth of pairings at a time. Errors that occur before the first
// frame (no grant, no records re-encryptable, no reason) still map to
// clean HTTP statuses; after the first frame the status line is already
// on the wire, so the only honest signal left is an aborted connection,
// which the client decoder reports as a typed truncation error.
func (s *Server) streamFrames(w http.ResponseWriter, produce func(func([]byte, bool) error) error) {
	w.Header().Set("Content-Type", "application/octet-stream")
	flusher, _ := w.(http.Flusher)
	wrote := false
	err := produce(func(frame []byte, wait bool) error {
		// The first Write attempt commits the 200 status even if it fails
		// partway, so flip wrote before touching the ResponseWriter.
		wrote = true
		if _, err := w.Write(frame); err != nil {
			return err
		}
		if wait && flusher != nil {
			flusher.Flush()
		}
		return nil
	})
	if err != nil {
		if !wrote {
			httpError(w, err)
			return
		}
		panic(http.ErrAbortHandler)
	}
}

func (s *Server) handleInstallGrant(w http.ResponseWriter, r *http.Request) {
	body, ok := readLimitedBody(w, r, MaxGrantBytes)
	if !ok {
		return
	}
	rk, err := core.UnmarshalReKey(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Route by the logical category: a post-rotation rekey carries a
	// versioned wire type ("medication#e1") but proxies are deployed per
	// base category, and Install itself keys grants by BaseCategory.
	proxy, err := s.svc.ProxyFor(BaseCategory(rk.Type))
	if err != nil {
		httpError(w, err)
		return
	}
	if err := proxy.Install(rk); err != nil {
		httpError(w, err)
		return
	}
	w.WriteHeader(http.StatusCreated)
}

func (s *Server) handleRevokeGrant(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	patient, category, requester := q.Get("patient"), Category(q.Get("category")), q.Get("requester")
	if patient == "" || category == "" || requester == "" {
		http.Error(w, "missing patient/category/requester", http.StatusBadRequest)
		return
	}
	// Route by the logical category, as install does: a revoke may name
	// the grant by its rekey's versioned wire type ("medication#e1").
	proxy, err := s.svc.ProxyFor(BaseCategory(category))
	if err != nil {
		httpError(w, err)
		return
	}
	if err := proxy.Revoke(patient, category, requester); err != nil {
		httpError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	// Route by the logical category, as install and revoke do: a caller
	// may name the proxy by a rotation-epoch wire type ("medication#e1").
	proxy, err := s.svc.ProxyFor(BaseCategory(Category(q.Get("category"))))
	if err != nil {
		httpError(w, err)
		return
	}
	limit := 0
	if ls := q.Get("limit"); ls != "" {
		limit, err = strconv.Atoi(ls)
		if err != nil || limit < 0 {
			http.Error(w, "invalid limit", http.StatusBadRequest)
			return
		}
	}
	// The log is stored as its wire form: every form of the response is a
	// zero-copy slice of it.
	body := proxy.Audit().TailJSON(limit)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)+2))
	w.Write([]byte{'['})
	w.Write(body)
	w.Write([]byte{']'})
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

// Client is a minimal typed client for the HTTP API. Identifiers (record
// IDs, patients, categories, requesters) may contain any bytes — '/', '&',
// '#', '+', spaces — the client escapes them on every request, and the
// server's wildcard routes unescape them back, so hostile IDs round-trip.
type Client struct {
	Base string
	HTTP *http.Client
}

// NewClient returns a client for the given base URL (no trailing slash).
//
// phrlint:root pending the reference model (ROADMAP), which drives phr.Client
func NewClient(base string) *Client {
	return &Client{Base: base, HTTP: http.DefaultClient}
}

// doStream issues the request and hands back the response, its body
// open, on the expected status. On any other status it consumes a bounded
// error snippet and returns it as an error.
func (c *Client) doStream(req *http.Request, wantStatus int) (*http.Response, error) {
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != wantStatus {
		defer resp.Body.Close()
		snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 8<<10))
		return nil, fmt.Errorf("phr: %s %s: %s: %s", req.Method, req.URL.Path, resp.Status, snippet)
	}
	return resp, nil
}

func (c *Client) do(req *http.Request, wantStatus int) ([]byte, error) {
	resp, err := c.doStream(req, wantStatus)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// PutRecord uploads a sealed record.
func (c *Client) PutRecord(rec *EncryptedRecord) error {
	req, err := http.NewRequest("POST", c.Base+"/v1/records", bytesReader(rec.Sealed.Marshal()))
	if err != nil {
		return err
	}
	req.Header.Set(HeaderRecordID, rec.ID)
	req.Header.Set(HeaderRecordPatient, rec.PatientID)
	req.Header.Set(HeaderRecordCategory, string(rec.Category))
	_, err = c.do(req, http.StatusCreated)
	return err
}

// InstallGrant uploads a rekey; the server routes it to the right proxy.
func (c *Client) InstallGrant(rk *core.ReKey) error {
	req, err := http.NewRequest("POST", c.Base+"/v1/grants", bytesReader(rk.Marshal()))
	if err != nil {
		return err
	}
	_, err = c.do(req, http.StatusCreated)
	return err
}

// RevokeGrant removes a grant.
func (c *Client) RevokeGrant(patient string, category Category, requester string) error {
	q := url.Values{
		"patient":   {patient},
		"category":  {string(category)},
		"requester": {requester},
	}
	req, err := http.NewRequest("DELETE", c.Base+"/v1/grants?"+q.Encode(), nil)
	if err != nil {
		return err
	}
	_, err = c.do(req, http.StatusNoContent)
	return err
}

// Disclose fetches one record re-encrypted toward the requester. The
// container is read into one buffer sized by the response's
// Content-Length and decoded with every check (hybrid.UnmarshalReCiphertext);
// the result's nonce and payload are slices of that buffer. A response
// longer than a frame may be is an error wrapping ErrFrameTooLarge.
func (c *Client) Disclose(recordID, requester string) (*hybrid.ReCiphertext, error) {
	u := fmt.Sprintf("%s/v1/records/%s?requester=%s",
		c.Base, url.PathEscape(recordID), url.QueryEscape(requester))
	req, err := http.NewRequest("GET", u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.doStream(req, http.StatusOK)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := readBody(resp.Body, resp.ContentLength, maxFrameBytes)
	if err != nil {
		return nil, err
	}
	if len(body) > maxFrameBytes {
		return nil, fmt.Errorf("%w: response exceeds %d bytes", ErrFrameTooLarge, maxFrameBytes)
	}
	return hybrid.UnmarshalReCiphertext(body)
}

// DiscloseCategoryStream fetches every record of (patient, category) and
// calls yield once per container, in the server's (insertion) order, as
// frames arrive — the client never buffers more than one container. A
// server-side mid-stream failure surfaces as a truncation error after the
// frames delivered so far.
func (c *Client) DiscloseCategoryStream(patient string, category Category, requester string, yield func(*hybrid.ReCiphertext) error) error {
	u := fmt.Sprintf("%s/v1/patients/%s/categories/%s?requester=%s",
		c.Base, url.PathEscape(patient), url.PathEscape(string(category)), url.QueryEscape(requester))
	req, err := http.NewRequest("GET", u, nil)
	if err != nil {
		return err
	}
	resp, err := c.doStream(req, http.StatusOK)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return DecodeBulkStream(resp.Body, yield)
}

// Bulk-stream decoding errors. A server that fails mid-stream (a
// re-encryption error, a mid-stream revocation) can only signal by
// aborting the connection after the 200 status line is committed; the
// decoder surfaces that as ErrTruncatedStream, distinctly from a clean
// end-of-stream (nil) and from a malformed frame (hybrid.ErrEncoding).
var (
	// ErrTruncatedStream marks a bulk stream that ended mid-frame: the
	// connection was cut (server abort, network failure) after some number
	// of complete frames.
	ErrTruncatedStream = errors.New("phr: bulk stream truncated")
	// ErrFrameTooLarge marks a frame whose length prefix exceeds the
	// protocol limit; it is rejected before any allocation of that size.
	ErrFrameTooLarge = errors.New("phr: bulk frame exceeds protocol limit")
)

// maxFrameBytes bounds one disclosure container a client reads: the
// largest sealed record upload plus room for the re-encrypted KEM.
const maxFrameBytes = MaxRecordBytes + 4096

// DecodeBulkStream incrementally decodes a length-prefixed bulk-disclosure
// response — the wire format the streaming disclosure endpoints produce —
// calling yield once per decoded container. It is the single decoder of
// that framing (the client uses it, and the fuzz target hammers it with
// truncated, oversized and hostile frames). A clean EOF at a frame
// boundary returns nil; a stream cut anywhere else returns an error
// wrapping ErrTruncatedStream after the frames decoded so far; an absurd
// length prefix returns an error wrapping ErrFrameTooLarge before any
// allocation of that size.
//
// Each frame is read into its own buffer and decoded with every check
// (hybrid.UnmarshalReCiphertext); a yielded container's nonce and payload
// are slices of its frame's buffer.
func DecodeBulkStream(r io.Reader, yield func(*hybrid.ReCiphertext) error) error {
	br := bufio.NewReader(r)
	var prefix [hybrid.FrameHeader]byte
	for frames := 0; ; frames++ {
		if n, err := io.ReadFull(br, prefix[:]); err != nil {
			// errors.Is, not ==: an io.Reader that wraps its transport's
			// EOF (adding context with %w) still marks a clean boundary.
			// The n == 0 guard keeps a wrapped EOF mid-header typed as
			// truncation (ReadFull only maps the bare sentinel to
			// ErrUnexpectedEOF).
			if n == 0 && errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("%w in frame header after %d complete frames: %w", ErrTruncatedStream, frames, err)
		}
		n := binary.BigEndian.Uint32(prefix[:])
		if n > maxFrameBytes {
			return fmt.Errorf("%w: frame %d declares %d bytes", ErrFrameTooLarge, frames, n)
		}
		item := make([]byte, n)
		if _, err := io.ReadFull(br, item); err != nil {
			return fmt.Errorf("%w in frame body after %d complete frames: %w", ErrTruncatedStream, frames, err)
		}
		rct, err := hybrid.UnmarshalReCiphertext(item)
		if err != nil {
			return err
		}
		if err := yield(rct); err != nil {
			return err
		}
	}
}

// BreakGlass performs emergency disclosure of a patient's emergency
// records toward a pre-authorized responder, streaming containers to yield
// as frames arrive. The reason is mandatory (400 without it) and lands in
// the audit log with every released record.
//
// phrlint:root pending the reference model (ROADMAP), which drives phr.Client
func (c *Client) BreakGlass(patient, requester, reason string, yield func(*hybrid.ReCiphertext) error) error {
	q := url.Values{"requester": {requester}, "reason": {reason}}
	u := fmt.Sprintf("%s/v1/patients/%s/breakglass?%s",
		c.Base, url.PathEscape(patient), q.Encode())
	req, err := http.NewRequest("POST", u, nil)
	if err != nil {
		return err
	}
	resp, err := c.doStream(req, http.StatusOK)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return DecodeBulkStream(resp.Body, yield)
}

// Metrics fetches the server's per-endpoint instrumentation snapshot.
func (c *Client) Metrics() (*ServerMetrics, error) {
	req, err := http.NewRequest("GET", c.Base+"/v1/metrics", nil)
	if err != nil {
		return nil, err
	}
	body, err := c.do(req, http.StatusOK)
	if err != nil {
		return nil, err
	}
	var m ServerMetrics
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// DiscloseCategory is DiscloseCategoryStream collected into a slice.
//
// phrlint:root pending the reference model (ROADMAP), which drives phr.Client
func (c *Client) DiscloseCategory(patient string, category Category, requester string) ([]*hybrid.ReCiphertext, error) {
	var out []*hybrid.ReCiphertext
	err := c.DiscloseCategoryStream(patient, category, requester, func(rct *hybrid.ReCiphertext) error {
		out = append(out, rct)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Audit fetches a proxy's audit entries.
//
// phrlint:root pending the reference model (ROADMAP), which drives phr.Client
func (c *Client) Audit(category Category) ([]AuditEntry, error) {
	q := url.Values{"category": {string(category)}}
	req, err := http.NewRequest("GET", c.Base+"/v1/audit?"+q.Encode(), nil)
	if err != nil {
		return nil, err
	}
	body, err := c.do(req, http.StatusOK)
	if err != nil {
		return nil, err
	}
	var entries []AuditEntry
	if err := json.Unmarshal(body, &entries); err != nil {
		return nil, err
	}
	return entries, nil
}

func bytesReader(b []byte) io.Reader { return bytes.NewReader(b) }
