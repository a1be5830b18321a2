package main

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"typepre/internal/phr"
)

// smokeConfig is a bounded selftest: small corpus, short measured window,
// enough concurrency to exercise the worker paths.
func smokeConfig() loadConfig {
	cfg := defaultConfig()
	cfg.Selftest = true
	cfg.Duration = 1500 * time.Millisecond
	cfg.Concurrency = 4
	cfg.Patients = 2
	cfg.Records = 4
	cfg.Requesters = 2
	cfg.Grants = 2
	return cfg
}

// TestSelftestSmoke is the satellite acceptance check: phrload -selftest
// completes in bounded time, records non-zero RPS on the core endpoints,
// and emits JSON that its own -check gate accepts.
func TestSelftestSmoke(t *testing.T) {
	bf, err := runBench(smokeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Runs) != 1 {
		t.Fatalf("selftest produced %d runs, want 1", len(bf.Runs))
	}
	run := bf.Runs[0]
	if run.TotalOps == 0 {
		t.Fatal("selftest recorded zero operations")
	}
	for _, name := range []string{phr.EndpointPut, phr.EndpointDisclose, phr.EndpointStream} {
		ep := run.endpoint(name)
		if ep == nil {
			t.Fatalf("no stats for endpoint %q", name)
		}
		if ep.Ops == 0 || ep.RPS <= 0 {
			t.Fatalf("endpoint %q: ops=%d rps=%f, want non-zero", name, ep.Ops, ep.RPS)
		}
		if ep.Errors != 0 {
			t.Errorf("endpoint %q: %d errors (first: %s)", name, ep.Errors, run.FirstErrors[name])
		}
	}
	if run.Server == nil {
		t.Fatal("selftest run carried no server-side metrics")
	}
	if run.Server.InFlightHigh < 1 {
		t.Errorf("server in-flight high-water = %d, want >= 1", run.Server.InFlightHigh)
	}

	data, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := checkBench(data); err != nil {
		t.Fatalf("selftest output fails its own check: %v", err)
	}
}

func TestCheckRejectsMalformed(t *testing.T) {
	cases := []struct {
		name, body, wantErr string
	}{
		{"not json", "{", "malformed JSON"},
		{"wrong schema", `{"schema":"phrload/0","runs":[{"label":"x"}]}`, "schema"},
		{"no runs", `{"schema":"phrload/1","runs":[]}`, "no runs"},
		{"missing endpoint", `{"schema":"phrload/1","runs":[{"label":"x","endpoints":[
			{"endpoint":"put","ops":1,"rps":1},
			{"endpoint":"disclose","ops":1,"rps":1}]}]}`, `no "disclose-category-stream"`},
		{"zero throughput", `{"schema":"phrload/1","runs":[{"label":"x","endpoints":[
			{"endpoint":"put","ops":0,"rps":0},
			{"endpoint":"disclose","ops":1,"rps":1},
			{"endpoint":"disclose-category-stream","ops":1,"rps":1}]}]}`, "no throughput"},
		{"non-monotone quantiles", `{"schema":"phrload/1","runs":[{"label":"x","endpoints":[
			{"endpoint":"put","ops":1,"rps":1,"p50_us":9,"p95_us":5,"p99_us":5,"max_us":5},
			{"endpoint":"disclose","ops":1,"rps":1},
			{"endpoint":"disclose-category-stream","ops":1,"rps":1}]}]}`, "non-monotone"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkBench([]byte(tc.body))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("checkBench = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestParseMix(t *testing.T) {
	m, err := parseMix("put=2, disclose=6,audit=0,stream=1")
	if err != nil {
		t.Fatal(err)
	}
	if m.total != 9 || len(m.ops) != 3 {
		t.Fatalf("mix = %+v, want total 9 over 3 ops (zero weights dropped)", m)
	}
	for _, bad := range []string{"", "put", "put=-1", "teleport=3", "put=0"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) accepted", bad)
		}
	}
}
