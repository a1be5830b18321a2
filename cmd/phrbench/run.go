package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"time"
)

// runConfig is one invocation of one workload.
type runConfig struct {
	seed    int64
	seconds float64 // measured time
	trace   bool
	workdir string // scratch space: the disk store, trace files
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opSummary is one operation kind's latency in one phase.
type opSummary struct {
	N      int     `json:"n"`
	Failed int     `json:"failed"`
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
}

// endToEnd lists the metrics of an untraced run with their units, in
// BENCHMARK.json's order; perLayer those of a traced run.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_ops_s", "ops/s"},
	{"read_p50_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"heap_live_mb", "MB"},
}

var perLayer = []struct{ name, unit string }{
	{"host.cpu_kernel_us", "us"},
	{"host.mul_kernel_us", "us"},
	{"loadgen.first_touch_ratio", "ratio"},
	{"client.disclose_us", "us"},
	{"http.overhead_us.disclose", "us"},
	{"server.handler_us.disclose", "us"},
	{"server.self_us.disclose", "us"},
	{"store.disclose_us", "us"},
	{"store.gets_per_disclose", "count"},
	{"client.op_us", "us"},
	{"http.op_us", "us"},
	{"server.self_op_us", "us"},
	{"store.op_us", "us"},
	{"service.request_us", "us"},
	{"audit.append_us", "us"},
	{"audit.tail_us", "us"},
	{"store.get_us", "us"},
	{"store.list_us", "us"},
	{"store.put_us", "us"},
	{"store.bytes_per_user_byte", "ratio"},
	{"core.reencrypt_hit_us", "us"},
	{"core.reencrypt_miss_us", "us"},
	{"bn254.pair_us", "us"},
	{"hybrid.unmarshal_ct_us", "us"},
	{"hybrid.frame_us", "us"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"runtime.gc_per_kop", "count"},
	{"trace.overhead_pct", "%"},
}

// blockDur is the length of one timed block of the measured loop. The
// host's speed changes from one second to the next, so each block is
// scaled to the reference speed by the kernels timed around it alone,
// and every gated metric is the median over the blocks: a block whose
// host sped up or slowed down midway scales badly, and the median leaves
// it out.
const blockDur = 500 * time.Millisecond

// blocks splits seconds into the measured loop's blocks, at least two,
// since the first is a ramp that reports nothing.
func blocks(seconds float64) (n int, d time.Duration) {
	n = max(2, int(math.Round(seconds/blockDur.Seconds())))
	return n, time.Duration(seconds * float64(time.Second) / float64(n))
}

// warmup discloses every standing (record, requester) pair once, filling
// the proxies' pairing caches, then runs the workload's warm-up mix
// operations. A failure aborts the run.
func (e *env) warmup(c *client, seed int64) error {
	if !e.spec.referrals {
		for _, p := range e.pairs {
			c.disclose(p, 0)
		}
	}
	rng := rand.New(rand.NewSource(seed*1000003 + 101))
	for i := 0; i < e.spec.warmOps; i++ {
		c.run(e.spec.draw(rng))
	}
	if rec := c.collect(); rec.firstErr != nil {
		return fmt.Errorf("phrbench: %s warm-up: %w", e.spec.name, rec.firstErr)
	}
	return nil
}

// medianKernel is the median time, in µs, of one of the reference kernels.
func medianKernel(timings []kernels, of func(kernels) time.Duration) float64 {
	xs := make([]float64, len(timings))
	for i, k := range timings {
		xs[i] = us(of(k))
	}
	return median(xs)
}

// logKernels prints the median time of each reference kernel beside its
// reference time.
func logKernels(log io.Writer, timings []kernels) {
	fmt.Fprintf(log, "  kernels, median µs (reference): cpu %.0f (%.0f)  mul %.0f (%.0f)\n",
		medianKernel(timings, func(k kernels) time.Duration { return k.cpu }), us(cpuRef),
		medianKernel(timings, func(k kernels) time.Duration { return k.mul }), us(mulRef))
}

// phaseLog prints one phase's counts and per-operation latency.
func phaseLog(log io.Writer, name string, rec *recorder, elapsed time.Duration) map[string]opSummary {
	sent, failed := rec.counts()
	fmt.Fprintf(log, "phase %-10s %6.2fs  sent %7d  succeeded %7d  failed %d\n",
		name, elapsed.Seconds(), sent, sent-failed, failed)
	out := map[string]opSummary{}
	for _, op := range rec.kinds() {
		s := rec.sorted(op)
		sum := opSummary{N: len(s), Failed: rec.ops[op].failed, P50Ms: percentile(s, 50), P99Ms: percentile(s, 99)}
		out[op] = sum
		fmt.Fprintf(log, "  %-10s n=%-7d failed=%-3d p50=%9.3f ms  p99=%9.3f ms\n", op, sum.N, sum.Failed, sum.P50Ms, sum.P99Ms)
	}
	if rec.firstErr != nil {
		fmt.Fprintf(log, "  first error: %v\n", rec.firstErr)
	}
	return out
}

// runWorkload sets the workload up, measures it and returns its result
// and each phase's per-operation latency. The setup_s it reports is this
// process's own; runOne replaces it with the median of fresh processes.
func runWorkload(spec *workloadSpec, cfg runConfig, log io.Writer) (*result, map[string]map[string]opSummary, error) {
	k0 := measureKernels()
	start := time.Now()
	e, err := setup(spec, cfg.seed, cfg.workdir, cfg.trace)
	if err != nil {
		return nil, nil, err
	}
	defer e.close()
	c, err := e.newClient(cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	if err := e.warmup(c, cfg.seed); err != nil {
		return nil, nil, err
	}
	setupS := time.Since(start).Seconds()
	fmt.Fprintf(log, "workload %s  seed %d  set-up %.3fs\n", spec.name, cfg.seed, setupS)
	setupS *= scale(k0, measureKernels())

	res := &result{Metrics: map[string]metric{}}
	add := func(rec *recorder) {
		s, f := rec.counts()
		res.Attempted += s
		res.Failed += f
	}
	rng := rand.New(rand.NewSource(cfg.seed*1000003 + 202))
	phases := map[string]map[string]opSummary{}
	var vals map[string]float64
	if !cfg.trace {
		// Read before any measured request, so it does not depend on how
		// many records the run's speed let it store.
		heap := liveHeapMB()
		n, d := blocks(cfg.seconds)
		all := newRecorder()
		var el time.Duration
		var thr, readP50, writeP50 []float64 // per block, at the reference speed
		var timings []kernels
		for i := 0; i < n; i++ {
			before := measureKernels()
			took := c.loop(rng, d)
			after := measureKernels()
			rec := c.collect()
			add(rec)
			if i == 0 {
				continue // the ramp
			}
			sc := scale(before, after)
			sent, failed := rec.counts()
			thr = append(thr, float64(sent-failed)/(sc*took.Seconds()))
			readP50 = append(readP50, sc*percentile(rec.sorted(spec.readOp), 50))
			writeP50 = append(writeP50, sc*percentile(rec.sorted(spec.writeOp), 50))
			timings = append(timings, before, after)
			all.merge(rec)
			el += took
		}
		phases["measured"] = phaseLog(log, "measured", all, el)
		logKernels(log, timings)
		sent, failed := all.counts()
		fmt.Fprintf(log, "  measured %.0f ops/s; median block %.0f ops/s at the reference speed\n",
			float64(sent-failed)/el.Seconds(), blockMedian(thr))
		vals = map[string]float64{
			"setup_s":          setupS,
			"throughput_ops_s": blockMedian(thr),
			"read_p50_ms":      blockMedian(readP50),
			"write_p50_ms":     blockMedian(writeP50),
			"heap_live_mb":     heap,
		}
	} else {
		// Untraced and traced blocks alternate, so a change in the
		// machine's speed affects both alike.
		n, d := blocks(cfg.seconds / 2)
		e.resetTouches()
		untraced, traced := newRecorder(), newRecorder()
		var elU, elT time.Duration
		var allocs, gcs uint64
		var timings []kernels
		for i := 0; i < n; i++ {
			timings = append(timings, measureKernels())
			a0, g0 := runtimeCounters()
			elU += c.loop(rng, d)
			a1, g1 := runtimeCounters()
			allocs, gcs = allocs+a1-a0, gcs+g1-g0
			untraced.merge(c.collect())

			e.tr.on.Store(true)
			elT += c.loop(rng, d)
			e.tr.on.Store(false)
			traced.merge(c.collect())
		}
		phases["untraced"] = phaseLog(log, "untraced", untraced, elU)
		phases["traced"] = phaseLog(log, "traced", traced, elT)
		add(untraced)
		add(traced)

		path := filepath.Join(cfg.workdir, fmt.Sprintf("trace-%s-seed%d.json", spec.name, cfg.seed))
		if err := e.tr.write(path); err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(log, "trace written to %s\n", path)

		uN, uF := untraced.counts()
		tN, tF := traced.counts()
		thrU := float64(uN-uF) / elU.Seconds()
		thrT := float64(tN-tF) / elT.Seconds()
		ls := e.tr.split()
		vals = map[string]float64{
			"host.cpu_kernel_us":         medianKernel(timings, func(k kernels) time.Duration { return k.cpu }),
			"host.mul_kernel_us":         medianKernel(timings, func(k kernels) time.Duration { return k.mul }),
			"loadgen.first_touch_ratio":  e.firstTouchRatio(),
			"client.disclose_us":         ls.discloseClient,
			"http.overhead_us.disclose":  ls.discloseHTTP,
			"server.handler_us.disclose": ls.discloseServer,
			"server.self_us.disclose":    ls.discloseSelf,
			"store.disclose_us":          ls.discloseStore,
			"store.gets_per_disclose":    ls.getsPerDisclose,
			"client.op_us":               ls.opClient,
			"http.op_us":                 ls.opHTTP,
			"server.self_op_us":          ls.opSelf,
			"store.op_us":                ls.opStore,
			"runtime.alloc_bytes_per_op": float64(allocs) / float64(uN),
			"runtime.gc_per_kop":         1000 * float64(gcs) / float64(uN),
			"trace.overhead_pct":         100 * (thrU - thrT) / thrU,
		}
		probes, err := e.probes(cfg.seed)
		if err != nil {
			return nil, nil, err
		}
		for k, v := range probes {
			vals[k] = v
		}
	}

	list := endToEnd
	if cfg.trace {
		list = perLayer
	}
	for _, m := range list {
		v, ok := vals[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, fmt.Errorf("phrbench: %s: metric %s has no samples", spec.name, m.name)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	res.Correct = res.Failed == 0
	return res, phases, nil
}
