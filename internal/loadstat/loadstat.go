// Package loadstat is the PHR server's request instrumentation, served on
// GET /v1/metrics: lock-free sharded counters and fixed-bucket latency
// histograms that many goroutines record into while others take
// consistent-enough snapshots, plus an in-flight gauge.
//
// The package is stdlib-only. Recording never blocks and never allocates:
// a Record call is two or three atomic adds into a randomly chosen shard
// (math/rand/v2's per-goroutine source, no lock) plus an atomic max update.
// Snapshots sum the shards; a snapshot taken while recorders are running is
// approximate in the usual monotonic sense — it may split a concurrent
// update — but every completed Record before the snapshot is included.
package loadstat

import (
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Histogram geometry. Bucket i covers latencies in [2^i, 2^(i+1)) µs, so
// bucket 0 is "under 2µs" and the last bucket tops out above two minutes —
// wide enough for any sane HTTP request, coarse enough (factor-of-two
// resolution) that quantile interpolation inside a bucket stays honest.
const (
	numBuckets = 28 // 2^27 µs ≈ 134 s
	numShards  = 8
)

// shard is one independently updated slice of a Recorder. The padding
// keeps shards on separate cache lines so concurrent recorders do not
// false-share.
type shard struct {
	ops      atomic.Uint64
	errs     atomic.Uint64
	sumNanos atomic.Int64
	buckets  [numBuckets]atomic.Uint64
	_        [64]byte
}

// Recorder accumulates latency observations for one endpoint (or any other
// labeled operation). The zero value is not usable; get one from a
// Collector or NewRecorder.
type Recorder struct {
	name     string
	maxNanos atomic.Int64
	shards   [numShards]shard
}

// NewRecorder returns a standalone recorder with the given label.
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
	s := &r.shards[rand.Uint32N(numShards)]
	s.ops.Add(1)
	if failed {
		s.errs.Add(1)
	}
	s.sumNanos.Add(int64(d))
	s.buckets[bucketOf(d)].Add(1)
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

// Snapshot sums the shards and derives quantiles. elapsed is the wall time
// the observations cover (used for RPS; pass 0 to omit RPS). Quantiles are
// clamped to the observed max so p50 ≤ p95 ≤ p99 ≤ max always holds.
func (r *Recorder) Snapshot(elapsed time.Duration) EndpointStats {
	var buckets [numBuckets]uint64
	var ops, errs uint64
	var sum int64
	for i := range r.shards {
		s := &r.shards[i]
		ops += s.ops.Load()
		errs += s.errs.Load()
		sum += s.sumNanos.Load()
		for b := range s.buckets {
			buckets[b] += s.buckets[b].Load()
		}
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

// Collector is a registry of recorders keyed by endpoint label. Lookup of
// an existing recorder is a read-locked map hit; registration (rare, first
// request per endpoint) takes the write lock.
type Collector struct {
	mu        sync.RWMutex
	recorders map[string]*Recorder
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{recorders: map[string]*Recorder{}}
}

// Endpoint returns the recorder for a label, creating it on first use.
func (c *Collector) Endpoint(name string) *Recorder {
	c.mu.RLock()
	r, ok := c.recorders[name]
	c.mu.RUnlock()
	if ok {
		return r
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if r, ok = c.recorders[name]; ok {
		return r
	}
	r = NewRecorder(name)
	c.recorders[name] = r
	return r
}

// Snapshot returns the stats of every registered endpoint, sorted by
// label for stable output.
func (c *Collector) Snapshot(elapsed time.Duration) []EndpointStats {
	c.mu.RLock()
	recs := make([]*Recorder, 0, len(c.recorders))
	for _, r := range c.recorders {
		recs = append(recs, r)
	}
	c.mu.RUnlock()
	out := make([]EndpointStats, 0, len(recs))
	for _, r := range recs {
		out = append(out, r.Snapshot(elapsed))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Endpoint < out[j].Endpoint })
	return out
}

// Gauge is an atomic up/down counter with a high-water mark — the
// in-flight-requests instrument.
type Gauge struct {
	cur  atomic.Int64
	high atomic.Int64
}

// Inc increments the gauge and returns the new value, updating the
// high-water mark.
func (g *Gauge) Inc() int64 {
	v := g.cur.Add(1)
	for {
		h := g.high.Load()
		if v <= h || g.high.CompareAndSwap(h, v) {
			return v
		}
	}
}

// Dec decrements the gauge.
func (g *Gauge) Dec() { g.cur.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.cur.Load() }

// High returns the high-water mark.
func (g *Gauge) High() int64 { return g.high.Load() }
