package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"typepre/internal/phr"
	"typepre/internal/phr/diskstore"
)

// serveDisk serves a fresh PHR service over the disk store in dir.
func serveDisk(t *testing.T, dir string) (*httptest.Server, *diskstore.Store) {
	t.Helper()
	store, err := diskstore.Open(dir, diskstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return httptest.NewServer(phr.NewServer(phr.NewServiceWith(phr.StandardCategories(), store))), store
}

// TestCrashDrill runs the drill in process: load a disk-backed server,
// note its record count, copy its directory while the store is still
// open, as a kill leaves it, and spotcheck a new server on the copy.
// Reopening the copy rather than the closed store keeps Close's final
// sync from hiding an acknowledged write that never reached the file.
func TestCrashDrill(t *testing.T) {
	dir := t.TempDir()
	ts, store := serveDisk(t, dir)
	if err := runLoad(ts.URL, time.Second); err != nil {
		t.Fatal(err)
	}
	sm, err := newClient(ts.URL).Metrics()
	if err != nil {
		t.Fatal(err)
	}
	ts.Close()
	crashed := t.TempDir()
	if err := os.CopyFS(crashed, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	ts, store = serveDisk(t, crashed)
	defer store.Close()
	defer ts.Close()
	if err := runSpotcheck(ts.URL, sm.StoreRecords); err != nil {
		t.Fatalf("spotcheck at the acknowledged count %d: %v", sm.StoreRecords, err)
	}
	err = runSpotcheck(ts.URL, sm.StoreRecords+1)
	if err == nil || !strings.Contains(err.Error(), "acknowledged writes were lost") {
		t.Fatalf("spotcheck above the acknowledged count = %v, want lost-writes error", err)
	}
}

// TestLoadFailsWhenPutsFail points the load phase at a server that accepts
// the corpus upload but answers every load-phase put with 500: the load
// phase must fail rather than leave the drill to pass on the corpus alone.
func TestLoadFailsWhenPutsFail(t *testing.T) {
	srv := phr.NewServer(phr.NewService(phr.StandardCategories()))
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/records" &&
			strings.HasPrefix(r.Header.Get(phr.HeaderRecordID), loadIDPrefix) {
			http.Error(w, "injected failure", http.StatusInternalServerError)
			return
		}
		srv.ServeHTTP(w, r)
	}))
	defer ts.Close()
	err := runLoad(ts.URL, 300*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "operations failed") {
		t.Fatalf("runLoad = %v, want an operations-failed error", err)
	}
}
