package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	thousand := make([]float64, 1000)
	for i := range thousand {
		thousand[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		xs   []float64
		pct  int
		want float64
	}{
		{[]float64{7}, 50, 7},
		{[]float64{7}, 99, 7},
		{[]float64{1, 2}, 50, 1},
		{[]float64{1, 2, 3}, 50, 2},
		{[]float64{1, 2, 3, 4}, 50, 2},
		{[]float64{1, 2, 3, 4}, 99, 4},
		{hundred, 50, 50},
		{hundred, 99, 99},
		{hundred, 100, 100},
		{thousand, 99, 990}, // 10 samples lie beyond it
		{thousand, 50, 500},
	} {
		if got := percentile(tc.xs, tc.pct); got != tc.want {
			t.Errorf("percentile(n=%d, %d) = %v, want %v", len(tc.xs), tc.pct, got, tc.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{5}, [3]float64{5, 5, 5}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{10, 20, 30, 40, 50}, [3]float64{15, 30, 45}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{0.5, 0.25, 4, 8, 1, 2}, [3]float64{0.4375, 1.5, 5}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// A block without a sample of the operation is left out of the median,
// not counted as zero.
func TestBlockMedianSkipsEmptyBlocks(t *testing.T) {
	if got := blockMedian([]float64{2, math.NaN(), 4, math.NaN(), 9}); got != 4 {
		t.Errorf("blockMedian = %v, want 4", got)
	}
	if got := blockMedian([]float64{math.NaN()}); !math.IsNaN(got) {
		t.Errorf("blockMedian of no samples = %v, want NaN", got)
	}
}

// A block between kernels that ran at the reference speed keeps its time;
// one whose kernels ran on average twice as long is scaled by 2^-sensitivity.
func TestScale(t *testing.T) {
	ref := kernels{cpu: cpuRef, mul: mulRef}
	slow := kernels{cpu: 2 * cpuRef, mul: 2 * mulRef}
	mixed := kernels{cpu: cpuRef, mul: 3 * mulRef} // mean slowdown 2
	half := math.Pow(0.5, sensitivity)
	for _, tc := range []struct {
		before, after kernels
		want          float64
	}{
		{ref, ref, 1},
		{slow, slow, half},
		{mixed, slow, half},
		{ref, kernels{cpu: 3 * cpuRef, mul: 3 * mulRef}, half},
	} {
		if got := scale(tc.before, tc.after); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("scale(%v, %v) = %v, want %v", tc.before, tc.after, got, tc.want)
		}
	}
}

// The measured loop is cut into half-second blocks, and never fewer than
// two, since the first is dropped as the ramp.
func TestBlocks(t *testing.T) {
	for _, tc := range []struct {
		seconds float64
		n       int
		d       time.Duration
	}{
		{30, 60, 500 * time.Millisecond},
		{15, 30, 500 * time.Millisecond},
		{0.4, 2, 200 * time.Millisecond},
	} {
		if n, d := blocks(tc.seconds); n != tc.n || d != tc.d {
			t.Errorf("blocks(%v) = %d × %v, want %d × %v", tc.seconds, n, d, tc.n, tc.d)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := benchMetric{Name: "p50", Better: "lower", Bound: 0.1}
	higher := benchMetric{Name: "thr", Better: "higher", Bound: 0.1}
	for _, tc := range []struct {
		name string
		a, b []float64
		m    benchMetric
		want string
	}{
		{"same", []float64{10, 10.2, 9.9, 10.1}, []float64{10.3, 10.4, 10.1, 10.2}, lower, "same"},
		{"worse", []float64{10, 10.2, 9.9, 10.1}, []float64{12, 12.1, 11.9, 12.2}, lower, "worse"},
		{"better", []float64{10, 10.2, 9.9, 10.1}, []float64{8, 8.1, 7.9, 8.2}, lower, "better"},
		{"higher is better", []float64{100, 101, 99, 100}, []float64{80, 81, 79, 80}, higher, "worse"},
		{"unresolved", []float64{5, 10, 15, 20}, []float64{6, 11, 16, 21}, lower, "unresolved"},
		{"separated", []float64{5, 10, 15, 20}, []float64{30, 40, 50, 60}, lower, "worse"},
	} {
		if got := verdict(tc.a, tc.b, tc.m); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// Runs appended to two -out files compare as the same, and a clear
// regression on one metric is reported.
func TestCompareOutFiles(t *testing.T) {
	dir := t.TempDir()
	a, b, worse := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json"), filepath.Join(dir, "worse.json")
	for _, spec := range workloads() {
		for seed := int64(1); seed <= 3; seed++ {
			for _, f := range []struct {
				path string
				thr  float64
			}{{a, 1000}, {b, 1000 + float64(seed)}, {worse, 500}} {
				m := map[string]metric{}
				for _, e := range endToEnd {
					m[e.name] = metric{Value: 1 + float64(seed)/100, Unit: e.unit}
				}
				m["throughput_ops_s"] = metric{Value: f.thr, Unit: "ops/s"}
				rec := runRecord{Workload: spec.name, Seed: seed, result: result{Correct: true, Attempted: 10, Metrics: m}}
				if err := appendRun(f.path, rec); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := compareFiles("../../BENCHMARK.json", a, b, io.Discard); err != nil {
		t.Errorf("equal runs: %v", err)
	}
	if err := compareFiles("../../BENCHMARK.json", a, worse, io.Discard); err == nil {
		t.Error("halved throughput was not reported")
	}
}

// TestWorkloadsSmoke runs every workload briefly on a tiny corpus, untraced
// and traced: each prints every metric BENCHMARK.json lists with its unit,
// no operation fails, and the trace's child spans lie inside their parents.
func TestWorkloadsSmoke(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []benchMetric `json:"end_to_end"`
		PerLayer  []benchMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloads()) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(def.Workloads), len(workloads()))
	}
	for _, wl := range def.Workloads {
		spec, err := findWorkload(wl.Name)
		if err != nil {
			t.Fatal(err)
		}
		spec.patients, spec.records, spec.requesters, spec.grants = 2, 6, 2, 3
		spec.warmOps = 20
		for _, trace := range []bool{false, true} {
			dir := t.TempDir()
			res, _, err := runWorkload(spec, runConfig{seed: 1, seconds: 0.4, trace: trace, workdir: dir}, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v, %d of %d operations failed", wl.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := def.EndToEnd
			if trace {
				want = def.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", wl.Name, trace, m.Name, got, m.Unit)
				}
			}
			if trace {
				checkTrace(t, filepath.Join(dir, "trace-"+wl.Name+"-seed1.json"))
			}
		}
	}
}

func checkTrace(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f traceFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(f.TraceEvents) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	byID := map[int32]traceEvent{}
	for _, ev := range f.TraceEvents {
		byID[ev.Args.ID] = ev
	}
	const slack = 1e-3 // µs; the file rounds nanoseconds to float
	for _, ev := range f.TraceEvents {
		if ev.Args.Parent == 0 {
			continue
		}
		p, ok := byID[ev.Args.Parent]
		if !ok {
			t.Errorf("%s: span %d (%s) has unknown parent %d", path, ev.Args.ID, ev.Name, ev.Args.Parent)
			continue
		}
		if ev.Ts+slack < p.Ts || ev.Ts+ev.Dur > p.Ts+p.Dur+slack {
			t.Errorf("%s: span %s [%.3f, %.3f] outlasts its parent %s [%.3f, %.3f]",
				path, ev.Name, ev.Ts, ev.Ts+ev.Dur, p.Name, p.Ts, p.Ts+p.Dur)
		}
		if ev.Args.Req != p.Args.Req {
			t.Errorf("%s: span %s is in request %d, its parent in %d", path, ev.Name, ev.Args.Req, p.Args.Req)
		}
	}
}
