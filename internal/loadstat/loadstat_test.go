package loadstat

import (
	"math/rand/v2"
	"sync"
	"testing"
	"time"
)

func TestBucketOfBounds(t *testing.T) {
	for _, d := range []time.Duration{
		0, time.Microsecond, 3 * time.Microsecond, 100 * time.Microsecond,
		time.Millisecond, 250 * time.Millisecond, time.Second, 10 * time.Minute,
	} {
		b := bucketOf(d)
		if b < 0 || b >= numBuckets {
			t.Fatalf("bucketOf(%v) = %d out of range", d, b)
		}
		lo, hi := bucketBounds(b)
		us := float64(d.Microseconds())
		if b < numBuckets-1 && (us < lo || us >= hi) {
			t.Fatalf("bucketOf(%v)=%d but bounds [%v,%v) miss %vµs", d, b, lo, hi, us)
		}
	}
}

func TestSnapshotBasics(t *testing.T) {
	r := NewRecorder("put")
	for i := 0; i < 1000; i++ {
		r.Record(time.Duration(i)*time.Microsecond, i%10 == 0)
	}
	st := r.Snapshot(2 * time.Second)
	if st.Ops != 1000 || st.Errors != 100 {
		t.Fatalf("ops=%d errors=%d, want 1000/100", st.Ops, st.Errors)
	}
	if st.RPS != 500 {
		t.Fatalf("rps=%v, want 500", st.RPS)
	}
	if st.MeanUs < 400 || st.MeanUs > 600 {
		t.Fatalf("mean=%vµs, want ≈499.5", st.MeanUs)
	}
	// Factor-of-two buckets: quantiles are right to within one bucket.
	if st.P50Us < 256 || st.P50Us > 1024 {
		t.Fatalf("p50=%vµs, want within a bucket of 500", st.P50Us)
	}
	if st.MaxUs != 999 {
		t.Fatalf("max=%vµs, want 999", st.MaxUs)
	}
}

func TestEmptySnapshot(t *testing.T) {
	st := NewRecorder("idle").Snapshot(time.Second)
	if st.Ops != 0 || st.RPS != 0 || st.P99Us != 0 || st.MaxUs != 0 {
		t.Fatalf("empty recorder snapshot = %+v", st)
	}
}

// TestQuantileMonotonicity checks p50 ≤ p95 ≤ p99 ≤ max over many random
// latency distributions, including heavy-tailed ones.
func TestQuantileMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for trial := 0; trial < 50; trial++ {
		r := NewRecorder("q")
		n := 1 + rng.IntN(5000)
		for i := 0; i < n; i++ {
			us := rng.Int64N(1 << (1 + rng.IntN(24)))
			r.Record(time.Duration(us)*time.Microsecond, false)
		}
		st := r.Snapshot(time.Second)
		if !(st.P50Us <= st.P95Us && st.P95Us <= st.P99Us && st.P99Us <= st.MaxUs) {
			t.Fatalf("trial %d: quantiles not monotone: %+v", trial, st)
		}
		if st.Ops != uint64(n) {
			t.Fatalf("trial %d: ops=%d want %d", trial, st.Ops, n)
		}
	}
}

// TestConcurrentRecordersAndReaders hammers one collector from parallel
// recorders while snapshot readers run, then checks counter conservation:
// the final sums across endpoints equal exactly what the writers recorded.
// Run under -race.
func TestConcurrentRecordersAndReaders(t *testing.T) {
	const (
		writers       = 8
		opsPerWriter  = 5000
		errEvery      = 7
		readerPasses  = 200
		endpointCount = 3
	)
	endpoints := []string{"put", "disclose", "stream"}
	c := NewCollector()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Readers: take snapshots concurrently and check monotonicity on every
	// intermediate snapshot.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < readerPasses; pass++ {
				select {
				case <-stop:
					return
				default:
				}
				for _, st := range c.Snapshot(time.Second) {
					if !(st.P50Us <= st.P95Us && st.P95Us <= st.P99Us && st.P99Us <= st.MaxUs) {
						t.Errorf("mid-run quantiles not monotone: %+v", st)
						return
					}
					if st.Errors > st.Ops {
						t.Errorf("mid-run errors %d > ops %d", st.Errors, st.Ops)
						return
					}
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 99))
			for i := 0; i < opsPerWriter; i++ {
				ep := endpoints[i%endpointCount]
				c.Endpoint(ep).Record(time.Duration(rng.Int64N(1e6)), i%errEvery == 0)
			}
		}(w)
	}
	wg.Wait()
	close(stop)

	var total, totalErrs uint64
	for _, st := range c.Snapshot(time.Second) {
		total += st.Ops
		totalErrs += st.Errors
	}
	if want := uint64(writers * opsPerWriter); total != want {
		t.Fatalf("counter conservation: total ops = %d, want %d", total, want)
	}
	// Each writer marks ceil(opsPerWriter/errEvery) errors.
	wantErrs := uint64(writers * ((opsPerWriter + errEvery - 1) / errEvery))
	if totalErrs != wantErrs {
		t.Fatalf("counter conservation: total errors = %d, want %d", totalErrs, wantErrs)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	const workers = 16
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Inc()
				g.Dec()
			}
		}()
	}
	wg.Wait()
	if v := g.Value(); v != 0 {
		t.Fatalf("gauge settled at %d, want 0", v)
	}
	if h := g.High(); h < 1 || h > workers {
		t.Fatalf("high-water mark %d outside [1,%d]", h, workers)
	}
}
