// Command phrserver runs the PHR disclosure service over HTTP: the
// semi-trusted store plus one re-encryption proxy per category, exposed on
// the API documented in docs/httpapi.md (implemented in
// internal/phr/httpapi.go). Patients upload sealed records and install
// grants; clinicians fetch re-encrypted records they decrypt locally. The
// server never holds a decryption key.
//
// Storage is pluggable: -store=mem (default) keeps records in memory,
// -store=disk persists them to an append-only segment log under -dir that
// survives restarts and crashes (see docs/storage.md). A write is in the
// segment file before its HTTP response in either fsync mode, so a killed
// server process loses nothing it acknowledged. With -fsync=always it is
// also on stable storage, so it survives a kernel crash or power loss;
// -fsync=interval trades those for throughput, leaving up to one 100 ms
// sync period of acknowledged writes exposed. Grants are proxy-local state
// in either mode and must be re-installed after a restart.
//
// The server instruments every handler: GET /v1/metrics serves
// per-endpoint latency/error counters, an in-flight gauge and the store's
// record count. With -pprof ADDR it also binds net/http/pprof on a
// separate address for profiling under load. Each listener is bound
// before anything is served and prints the address it bound (port 0 picks
// a free one); an address that cannot be bound stops the server at
// startup. Both bound how long a client may take to send a request and
// how long an idle connection stays open (newHTTPServer).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers profiling handlers on DefaultServeMux
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"typepre/internal/phr"
	"typepre/internal/phr/diskstore"
)

var (
	addr       = flag.String("addr", "127.0.0.1:8080", "listen address")
	categories = flag.String("categories", "", "comma-separated category list (default: standard PHR categories)")
	pprofAddr  = flag.String("pprof", "", "bind net/http/pprof on this address (e.g. 127.0.0.1:6060); empty disables")

	storeKind = flag.String("store", "mem", "storage backend: mem (volatile) or disk (crash-safe segment log)")
	storeDir  = flag.String("dir", "", "data directory for -store=disk")
	fsyncMode = flag.String("fsync", "always", "disk durability: always (sync before every ack) or interval (background sync every 100ms)")
)

func main() {
	flag.Parse()

	var cats []phr.Category
	if *categories == "" {
		cats = phr.StandardCategories()
	} else {
		for _, c := range strings.Split(*categories, ",") {
			if c = strings.TrimSpace(c); c != "" {
				cats = append(cats, phr.Category(c))
			}
		}
	}
	if len(cats) == 0 {
		log.Fatal("phrserver: no categories configured")
	}

	backend, err := openBackend()
	if err != nil {
		log.Fatalf("phrserver: %v", err)
	}

	if *pprofAddr != "" {
		// pprof handlers live on DefaultServeMux; the API server below
		// uses its own mux, so profiling stays off the service address.
		listenAndServe(newHTTPServer(*pprofAddr, http.DefaultServeMux), "pprof on http://%s/debug/pprof/\n")
	}

	svc := phr.NewService(cats, backend)
	fmt.Printf("phrserver: %d category proxies:\n", len(cats))
	for _, c := range cats {
		p, _ := svc.ProxyFor(c)
		fmt.Printf("  %-20s served by %s\n", c, p.Name())
	}

	srv := newHTTPServer(*addr, phr.NewServer(svc))

	// Graceful shutdown: stop accepting requests, drain in-flight ones,
	// then Close the backend so interval-mode disk stores flush their tail.
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		s := <-sig
		log.Printf("phrserver: %v, shutting down", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("phrserver: shutdown: %v", err)
		}
		if err := backend.Close(); err != nil {
			log.Printf("phrserver: closing store: %v", err)
		}
	}()

	listenAndServe(srv, "listening on http://%s (metrics on /v1/metrics)\n")
	<-done
}

// listenAndServe binds srv.Addr, prints the bound address through format,
// and serves srv on it in the background until Shutdown. Binding first
// makes an address that cannot be bound fatal before anything is served,
// and lets port 0 report the port it picked.
func listenAndServe(srv *http.Server, format string) {
	ln, err := net.Listen("tcp", srv.Addr)
	if err != nil {
		log.Fatalf("phrserver: %v", err)
	}
	fmt.Printf(format, ln.Addr())
	go func() {
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()
}

// Limits every listener of the server applies, so a slow or hostile
// client cannot hold a connection or its memory indefinitely.
const (
	// readHeaderTimeout bounds how long a client may take to send its
	// request headers.
	readHeaderTimeout = 10 * time.Second
	// readTimeout bounds reading a whole request, headers and body: a
	// phr.MaxRecordBytes upload at ~300 KB/s still fits.
	readTimeout = 60 * time.Second
	// idleTimeout closes a keep-alive connection that sends no new request.
	idleTimeout = 120 * time.Second
	// maxHeaderBytes caps the request line plus headers.
	maxHeaderBytes = 64 << 10
)

// newHTTPServer builds an http.Server for addr with the limits above.
// WriteTimeout stays unset on purpose: a category stream legitimately
// writes for seconds, and so does a pprof CPU profile, so a whole-response
// write deadline would cut healthy responses off.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

func openBackend() (phr.Backend, error) {
	switch *storeKind {
	case "mem":
		return phr.NewStore(), nil
	case "disk":
		if *storeDir == "" {
			return nil, fmt.Errorf("-store=disk requires -dir")
		}
		mode, err := diskstore.ParseFsyncMode(*fsyncMode)
		if err != nil {
			return nil, err
		}
		s, err := diskstore.Open(*storeDir, diskstore.Options{Fsync: mode})
		if err != nil {
			return nil, err
		}
		rec := s.Recovery()
		fmt.Printf("disk store %s: %d records in %d segments (%d log entries", *storeDir, rec.Records, rec.Segments, rec.Entries)
		if rec.TruncatedBytes > 0 {
			fmt.Printf(", %d torn tail bytes truncated", rec.TruncatedBytes)
		}
		fmt.Printf("), fsync=%s\n", *fsyncMode)
		return s, nil
	default:
		return nil, fmt.Errorf("unknown -store %q (want mem or disk)", *storeKind)
	}
}
