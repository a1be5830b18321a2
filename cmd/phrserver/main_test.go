package main

import (
	"bufio"
	"errors"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"
)

func TestNewHTTPServerLimits(t *testing.T) {
	srv := newHTTPServer("127.0.0.1:0", http.NotFoundHandler())
	if srv.Addr != "127.0.0.1:0" || srv.Handler == nil {
		t.Fatalf("addr %q, handler %v", srv.Addr, srv.Handler)
	}
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.ReadTimeout != readTimeout ||
		srv.IdleTimeout != idleTimeout || srv.MaxHeaderBytes != maxHeaderBytes {
		t.Errorf("limits: ReadHeaderTimeout %v, ReadTimeout %v, IdleTimeout %v, MaxHeaderBytes %d",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout, srv.MaxHeaderBytes)
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want unset (streams run for seconds)", srv.WriteTimeout)
	}
}

// TestSlowHeaderClientDisconnected opens a connection that starts a request
// and never finishes its headers; the server must close it once
// ReadHeaderTimeout passes (shortened here so the test is quick).
func TestSlowHeaderClientDisconnected(t *testing.T) {
	srv := newHTTPServer("", http.NotFoundHandler())
	srv.ReadHeaderTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /v1/metrics HTTP/1.1\r\nHost: phr\r\nX-Slow: "); err != nil {
		t.Fatal(err)
	}

	// Well past ReadHeaderTimeout, but far from what a test run tolerates.
	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	_, err = io.Copy(io.Discard, conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection still open after %v", time.Since(start))
	}
}

// TestPprofReportsBoundAddress starts phrserver with -pprof on port 0: it
// must print the port it bound, and serve the pprof index there.
func TestPprofReportsBoundAddress(t *testing.T) {
	s := startServer(t, "-pprof", "127.0.0.1:0")
	var index string
	for _, line := range s.banner {
		if rest, ok := strings.CutPrefix(line, "pprof on "); ok {
			index = rest
		}
	}
	u, err := url.Parse(index)
	if err != nil || u.Port() == "" || u.Port() == "0" {
		t.Fatalf("pprof line %q (%v) names no bound port; output before listening: %q", index, err, s.banner)
	}
	resp, err := http.Get(index)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", index, resp.Status)
	}
}

// TestPprofAddressInUseIsFatal starts phrserver with a -pprof address the
// test already holds: it must exit non-zero before it reports serving.
func TestPprofAddressInUseIsFatal(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	s := spawn(t, "-pprof", held.Addr().String())
	lines := bufio.NewScanner(s.stdout)
	for lines.Scan() {
		if strings.HasPrefix(lines.Text(), "listening on ") {
			t.Fatalf("phrserver serves with its -pprof address %s taken", held.Addr())
		}
	}
	s.stdout.Close()
	if err := s.wait(t); err == nil {
		t.Fatalf("phrserver exited 0 with its -pprof address %s taken", held.Addr())
	}
}
