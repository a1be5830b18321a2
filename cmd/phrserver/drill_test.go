package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"typepre/internal/core"
	"typepre/internal/hybrid"
	"typepre/internal/phr"
)

// childEnv set in the environment makes the test binary run phrserver's
// main instead of its tests, so a test can start, signal and restart a
// real server process.
const childEnv = "PHRSERVER_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// server is a phrserver child process.
type server struct {
	url    string
	banner []string // stdout lines before the "listening on" line
	cmd    *exec.Cmd
	stdout *os.File
	stderr bytes.Buffer
	exited chan struct{} // closed once Wait has returned err
	err    error
}

// spawn runs phrserver with args on a free loopback port, its stdout on
// s.stdout. The process is killed when the test ends, if it is still
// running.
func spawn(t *testing.T, args ...string) *server {
	t.Helper()
	s := &server{exited: make(chan struct{})}
	s.cmd = exec.Command(os.Args[0], append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	s.cmd.Env = append(os.Environ(), childEnv+"=1")
	s.cmd.Stderr = &s.stderr
	stdout, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	s.cmd.Stdout = w
	err = s.cmd.Start()
	w.Close()
	if err != nil {
		stdout.Close()
		t.Fatal(err)
	}
	s.stdout = stdout
	go func() {
		s.err = s.cmd.Wait()
		close(s.exited)
	}()
	t.Cleanup(func() {
		s.cmd.Process.Kill()
		<-s.exited
	})
	return s
}

// startServer spawns phrserver with args and returns once it prints the
// address it bound.
func startServer(t *testing.T, args ...string) *server {
	t.Helper()
	s := spawn(t, args...)
	lines := bufio.NewScanner(s.stdout)
	for lines.Scan() {
		rest, ok := strings.CutPrefix(lines.Text(), "listening on ")
		if !ok {
			s.banner = append(s.banner, lines.Text())
			continue
		}
		s.url, _, _ = strings.Cut(rest, " ")
		// Drain the rest, so a late write can neither block nor break
		// the child.
		go func() {
			for lines.Scan() {
			}
			s.stdout.Close()
		}()
		return s
	}
	s.stdout.Close()
	<-s.exited
	t.Fatalf("phrserver %v exited before listening (%v):\n%s", args, s.err, &s.stderr)
	return nil
}

// wait returns the child's exit error once it has exited.
func (s *server) wait(t *testing.T) error {
	t.Helper()
	select {
	case <-s.exited:
		return s.err
	case <-time.After(30 * time.Second):
		t.Fatalf("phrserver still running 30s after its signal:\n%s", &s.stderr)
		return nil
	}
}

// requester is the one clinician every drill grant delegates to.
const requester = "clinician-000@clinic.example"

// corpus is the drill's deterministic workload plus a grant toward
// requester for every (patient, category), so every record discloses, and
// one churn grant per load worker toward a requester nothing reads as.
type corpus struct {
	w      *phr.Workload
	grants []*core.ReKey
	churn  [workers]*core.ReKey
	byID   map[string]*phr.EncryptedRecord
}

var sharedCorpus = sync.OnceValues(func() (*corpus, error) {
	wc := phr.DefaultWorkload()
	wc.Patients = 4
	wc.RecordsPerPatient = 6
	wc.GrantsPerPatient = 0
	wc.InsecureDeterministic = true
	w, err := phr.GenerateWorkload(wc)
	if err != nil {
		return nil, err
	}
	c := &corpus{w: w, byID: map[string]*phr.EncryptedRecord{}}
	for _, pat := range w.Patients {
		for _, cat := range wc.Categories {
			rk, err := pat.Delegator().Delegate(w.KGC2.Params(), requester, core.Type(cat), nil)
			if err != nil {
				return nil, err
			}
			c.grants = append(c.grants, rk)
		}
	}
	for i := range c.churn {
		pat := w.Patients[i%len(w.Patients)]
		cat := wc.Categories[i%len(wc.Categories)]
		rk, err := pat.Delegator().Delegate(w.KGC2.Params(), fmt.Sprintf("churn-%d@clinic.example", i), core.Type(cat), nil)
		if err != nil {
			return nil, err
		}
		c.churn[i] = rk
	}
	for _, rec := range w.Records {
		c.byID[rec.ID] = rec
	}
	return c, nil
})

func testCorpus(t *testing.T) *corpus {
	t.Helper()
	c, err := sharedCorpus()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func (c *corpus) installGrants(t *testing.T, client *phr.Client) {
	t.Helper()
	for _, rk := range c.grants {
		if err := client.InstallGrant(rk); err != nil {
			t.Fatal(err)
		}
	}
}

// Load shape: workers put copies of corpus records under fresh IDs, and
// every sideEvery-th operation of a worker is a category stream or a grant
// install or revoke instead. The stop signal goes out once maxPuts puts
// are acknowledged.
const (
	workers   = 4
	sideEvery = 8
	maxPuts   = 300
)

// drill uploads the corpus to a fresh -store=disk server, loads it with
// puts, stops it with sig while puts are in flight, restarts it on the same
// directory and re-installs the grants. Then every corpus record and every
// put that got its 201 must disclose and decrypt to its body. Before the
// signal, every operation must succeed.
func drill(t *testing.T, fsync string, sig os.Signal) {
	c := testCorpus(t)
	args := []string{"-store=disk", "-dir=" + t.TempDir(), "-fsync=" + fsync}
	srv := startServer(t, args...)
	client := &phr.Client{Base: srv.url, HTTP: newHTTPClient()}
	for _, rec := range c.w.Records {
		if err := client.PutRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	c.installGrants(t, client)

	var (
		signalled atomic.Bool
		cut       atomic.Int64 // puts the signal cut off
		stopOnce  sync.Once
		mu        sync.Mutex
		acked     = map[string]string{} // record ID → ID of the corpus record it copies
		wg        sync.WaitGroup
	)
	stop := func() {
		stopOnce.Do(func() {
			signalled.Store(true)
			if err := srv.cmd.Process.Signal(sig); err != nil {
				t.Error(err)
			}
		})
	}
	for wi := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			churn := c.churn[wi]
			installed := false
			for i := 0; !signalled.Load(); i++ {
				tmpl := c.w.Records[(wi+i*workers)%len(c.w.Records)]
				var err error
				switch {
				case i%sideEvery != sideEvery-1:
					id := fmt.Sprintf("load/w%d-%05d", wi, i)
					err = client.PutRecord(&phr.EncryptedRecord{
						ID: id, PatientID: tmpl.PatientID, Category: tmpl.Category, Sealed: tmpl.Sealed,
					})
					if err == nil {
						mu.Lock()
						acked[id] = tmpl.ID
						n := len(acked)
						mu.Unlock()
						if n == maxPuts {
							stop()
						}
					} else if signalled.Load() {
						cut.Add(1)
					}
				case i/sideEvery%2 == 0:
					frames := 0
					err = client.DiscloseCategoryStream(tmpl.PatientID, tmpl.Category, requester,
						func(*hybrid.ReCiphertext) error { frames++; return nil })
					if err == nil && frames == 0 {
						err = errors.New("stream served no frame")
					}
				case installed:
					err = client.RevokeGrant(churn.DelegatorID, phr.Category(churn.Type), churn.DelegateeID)
					installed = err != nil
				default:
					err = client.InstallGrant(churn)
					installed = err == nil
				}
				if err != nil && !signalled.Load() {
					t.Errorf("worker %d op %d before the signal: %v", wi, i, err)
					stop()
				}
			}
		}()
	}
	wg.Wait()
	err := srv.wait(t)
	if sig == os.Kill {
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.Sys().(syscall.WaitStatus).Signal() != syscall.SIGKILL {
			t.Fatalf("phrserver exit = %v, want killed by SIGKILL", err)
		}
	} else if err != nil {
		t.Fatalf("phrserver exit after %v = %v, want 0:\n%s", sig, err, &srv.stderr)
	}
	if t.Failed() {
		return
	}
	t.Logf("%d puts acknowledged before %v, %d cut by it", len(acked), sig, cut.Load())

	srv = startServer(t, args...)
	client = &phr.Client{Base: srv.url, HTTP: newHTTPClient()}
	c.installGrants(t, client)
	for _, rec := range c.w.Records {
		acked[rec.ID] = rec.ID
	}
	// A put the signal cut off may or may not have landed; nothing else
	// may appear.
	if n := storeRecords(t, srv.url); n < len(acked) || n > len(acked)+int(cut.Load()) {
		t.Fatalf("store_records = %d after restart, want %d to %d", n, len(acked), len(acked)+int(cut.Load()))
	}
	// Every copy of a corpus record discloses to the same container, so
	// each distinct container is decrypted once: a container byte-identical
	// to one that opened to the body opens to it too.
	opened := map[string][]byte{}
	for id, bodyID := range acked {
		rct, err := client.Disclose(id, requester)
		if err != nil {
			t.Fatalf("record %s after restart: %v", id, err)
		}
		key := string(rct.Marshal())
		body, ok := opened[key]
		if !ok {
			if body, err = hybrid.DecryptReEncrypted(c.w.Requesters[requester], rct); err != nil {
				t.Fatalf("record %s after restart: %v", id, err)
			}
			opened[key] = body
		}
		if !bytes.Equal(body, c.w.Bodies[bodyID]) {
			t.Fatalf("record %s decrypts to a different body after restart", id)
		}
	}
}

// storeRecords reads the store_records field of the server's /v1/metrics.
func storeRecords(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m phr.ServerMetrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m.StoreRecords
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers}}
}

// TestCrashDrill SIGKILLs a disk-backed server while puts are in flight and
// checks every acknowledged record by ID after a restart, in both fsync
// modes: diskstore writes each frame to the segment file before the put
// returns, and a killed process cannot take the page cache with it.
func TestCrashDrill(t *testing.T) {
	for _, fsync := range []string{"always", "interval"} {
		t.Run("fsync="+fsync, func(t *testing.T) { drill(t, fsync, os.Kill) })
	}
}

// TestSIGTERMDrains sends SIGTERM to a disk-backed server during writes: it
// must drain, close its store and exit 0, and a restart must serve every
// put it acknowledged.
func TestSIGTERMDrains(t *testing.T) {
	drill(t, "interval", syscall.SIGTERM)
}

// TestBadStoreFlags checks that phrserver refuses a storage configuration
// it cannot serve: it exits non-zero with its message, and never listens.
func TestBadStoreFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-store=disk"}, "-store=disk requires -dir"},
		{[]string{"-store=tape"}, `unknown -store "tape"`},
		{[]string{"-store=disk", "-dir=" + t.TempDir(), "-fsync=never"}, `unknown fsync mode "never"`},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0], append([]string{"-addr", "127.0.0.1:0"}, tc.args...)...)
		cmd.Env = append(os.Environ(), childEnv+"=1")
		out, err := cmd.CombinedOutput()
		cancel()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() <= 0 || !strings.Contains(string(out), tc.want) {
			t.Errorf("phrserver %v: exit %v, output:\n%s\nwant a non-zero exit and %q", tc.args, err, out, tc.want)
		}
		if strings.Contains(string(out), "listening on") {
			t.Errorf("phrserver %v listened", tc.args)
		}
	}
}
