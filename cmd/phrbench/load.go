package main

import (
	"sort"
	"time"
)

// request is one drawn operation. pick selects the operation's inputs
// (record, grant, template, category) so that the seed alone fixes them.
type request struct {
	op   string
	pick uint64
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// opStats holds every latency sample of one operation kind, in ms.
type opStats struct {
	lat    []float64
	failed int
}

// recorder collects samples; merge combines those of several blocks.
type recorder struct {
	ops      map[string]*opStats
	firstErr error
}

func newRecorder() *recorder { return &recorder{ops: map[string]*opStats{}} }

func (r *recorder) stats(op string) *opStats {
	s := r.ops[op]
	if s == nil {
		s = &opStats{}
		r.ops[op] = s
	}
	return s
}

// record adds one sample; a non-nil err also counts the operation failed.
func (r *recorder) record(op string, lat time.Duration, err error) {
	s := r.stats(op)
	s.lat = append(s.lat, ms(lat))
	if err != nil {
		r.fail(op, err)
	}
}

// fail counts a failure of an operation already sampled, such as a
// deferred correctness check finding a wrong record.
func (r *recorder) fail(op string, err error) {
	r.stats(op).failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

func (r *recorder) merge(o *recorder) {
	for op, s := range o.ops {
		d := r.stats(op)
		d.lat = append(d.lat, s.lat...)
		d.failed += s.failed
	}
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

// counts returns sent and failed operations over every kind.
func (r *recorder) counts() (sent, failed int) {
	for _, s := range r.ops {
		sent += len(s.lat)
		failed += s.failed
	}
	return sent, failed
}

// sorted returns the samples of one kind in ascending order.
func (r *recorder) sorted(op string) []float64 {
	var out []float64
	if s := r.ops[op]; s != nil {
		out = append(out, s.lat...)
	}
	sort.Float64s(out)
	return out
}

// kinds returns the recorded operation kinds in name order.
func (r *recorder) kinds() []string {
	out := make([]string, 0, len(r.ops))
	for op := range r.ops {
		out = append(out, op)
	}
	sort.Strings(out)
	return out
}
