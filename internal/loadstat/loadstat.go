// Package loadstat is the PHR server's request instrumentation, served on
// GET /v1/metrics: one recorder of lock-free counters and a fixed-bucket
// latency histogram per endpoint, which request goroutines record into
// while others take snapshots, plus an in-flight gauge.
//
// The package is stdlib-only. Recording never blocks and never allocates:
// a Record call is three or four atomic adds plus an atomic max update. A
// snapshot taken while recorders are running may split a concurrent
// update, but every Record completed before the snapshot is included.
package loadstat

import (
	"math"
	"sync/atomic"
	"time"
)

// Histogram geometry. Bucket i covers latencies in [2^i, 2^(i+1)) µs, so
// bucket 0 is "under 2µs" and the last bucket tops out above two minutes —
// wide enough for any sane HTTP request, coarse enough (factor-of-two
// resolution) that quantile interpolation inside a bucket stays honest.
const numBuckets = 28 // 2^27 µs ≈ 134 s

// Recorder accumulates latency observations for one endpoint (or any other
// labeled operation). The zero value is not usable; get one from
// NewRecorder.
type Recorder struct {
	name     string
	ops      atomic.Uint64
	errs     atomic.Uint64
	sumNanos atomic.Int64
	maxNanos atomic.Int64
	buckets  [numBuckets]atomic.Uint64
}

// NewRecorder returns a recorder with the given label.
func NewRecorder(name string) *Recorder { return &Recorder{name: name} }

// bucketOf maps a latency to its histogram bucket.
func bucketOf(d time.Duration) int {
	us := d.Microseconds()
	b := 0
	for us >= 2 && b < numBuckets-1 {
		us >>= 1
		b++
	}
	return b
}

// Record adds one observation. failed marks the operation as an error; its
// latency still counts toward the distribution (a fast 4xx is still a
// served request).
func (r *Recorder) Record(d time.Duration, failed bool) {
	if d < 0 {
		d = 0
	}
	r.ops.Add(1)
	if failed {
		r.errs.Add(1)
	}
	r.sumNanos.Add(int64(d))
	r.buckets[bucketOf(d)].Add(1)
	for {
		cur := r.maxNanos.Load()
		if int64(d) <= cur || r.maxNanos.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// EndpointStats is the flat, serialization-friendly snapshot of one
// recorder. Latencies are in microseconds; RPS is ops divided by the
// elapsed wall time the caller supplies.
type EndpointStats struct {
	Endpoint string  `json:"endpoint"`
	Ops      uint64  `json:"ops"`
	Errors   uint64  `json:"errors"`
	RPS      float64 `json:"rps"`
	MeanUs   float64 `json:"mean_us"`
	P50Us    float64 `json:"p50_us"`
	P95Us    float64 `json:"p95_us"`
	P99Us    float64 `json:"p99_us"`
	MaxUs    float64 `json:"max_us"`
}

// quantile estimates the q-th quantile (0 < q ≤ 1) from summed bucket
// counts by linear interpolation inside the containing bucket.
func quantile(buckets *[numBuckets]uint64, total uint64, q float64) float64 {
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, n := range buckets {
		if n == 0 {
			continue
		}
		lo, hi := bucketBounds(i)
		if cum+float64(n) >= rank {
			frac := (rank - cum) / float64(n)
			return lo + frac*(hi-lo)
		}
		cum += float64(n)
	}
	_, hi := bucketBounds(numBuckets - 1)
	return hi
}

// bucketBounds returns bucket i's [lo, hi) latency range in microseconds.
func bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, 2
	}
	lo = math.Exp2(float64(i))
	return lo, lo * 2
}

// Snapshot reads the counters and derives quantiles. elapsed is the wall
// time the observations cover (used for RPS; pass 0 to omit RPS).
// Quantiles are clamped to the observed max so p50 ≤ p95 ≤ p99 ≤ max
// always holds.
func (r *Recorder) Snapshot(elapsed time.Duration) EndpointStats {
	// Errors before ops: Record counts an op before its error, so this
	// order keeps errors ≤ ops under concurrent recording.
	errs := r.errs.Load()
	ops := r.ops.Load()
	sum := r.sumNanos.Load()
	var buckets [numBuckets]uint64
	for i := range r.buckets {
		buckets[i] = r.buckets[i].Load()
	}
	st := EndpointStats{Endpoint: r.name, Ops: ops, Errors: errs}
	if ops == 0 {
		return st
	}
	maxUs := float64(r.maxNanos.Load()) / 1e3
	st.MeanUs = float64(sum) / float64(ops) / 1e3
	st.P50Us = math.Min(quantile(&buckets, ops, 0.50), maxUs)
	st.P95Us = math.Min(quantile(&buckets, ops, 0.95), maxUs)
	st.P99Us = math.Min(quantile(&buckets, ops, 0.99), maxUs)
	st.MaxUs = maxUs
	if elapsed > 0 {
		st.RPS = float64(ops) / elapsed.Seconds()
	}
	return st
}

// Gauge is an atomic up/down counter with a high-water mark — the
// in-flight-requests instrument.
type Gauge struct {
	cur  atomic.Int64
	high atomic.Int64
}

// Inc increments the gauge, updating the high-water mark.
func (g *Gauge) Inc() {
	v := g.cur.Add(1)
	for {
		h := g.high.Load()
		if v <= h || g.high.CompareAndSwap(h, v) {
			return
		}
	}
}

// Dec decrements the gauge.
func (g *Gauge) Dec() { g.cur.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.cur.Load() }

// High returns the high-water mark.
func (g *Gauge) High() int64 { return g.high.Load() }
