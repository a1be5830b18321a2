package hybrid

import (
	"runtime"
	"sync"

	"typepre/internal/core"
)

// Batch re-encryption: the bulk-disclosure hot path. A proxy serving
// "disclose my whole emergency file" transforms many independent sealed
// records with one prepared proxy key; the transformations share nothing
// but the (concurrency-safe) adjustment cache, so they parallelize
// perfectly. ReEncryptStream fans the work across a bounded worker pool
// and hands results back in input order as they complete, so a caller can
// stream them to the network without buffering the whole batch.

// ReEncryptStream transforms every ciphertext with the prepared proxy key
// across a pool of workers = runtime.GOMAXPROCS(0) goroutines (inline
// when that or len(cts) is 1) and calls yield exactly once per completed
// input, in input order, as results become available. Dispatch is
// throttled to the emit frontier: at most ~2×workers items are in flight
// or waiting un-emitted, so memory stays O(workers) regardless of
// len(cts).
//
// The first re-encryption or yield error stops the pool and is returned;
// yield is never called again after it returns an error. yield runs on
// the calling goroutine.
func ReEncryptStream(cts []*Ciphertext, prk *core.PreparedReKey, yield func(*ReCiphertext) error) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > len(cts) {
		workers = len(cts)
	}
	if workers <= 1 {
		for _, ct := range cts {
			rct, err := ReEncryptPrepared(ct, prk)
			if err != nil {
				return err
			}
			if err := yield(rct); err != nil {
				return err
			}
		}
		return nil
	}

	type result struct {
		rct *ReCiphertext
		err error
	}
	type job struct {
		ct  *Ciphertext
		out chan result
	}

	jobs := make(chan job)
	// pending carries each item's result slot in dispatch (= input) order.
	// Its capacity is the emit window: once `workers` results wait
	// un-emitted the dispatcher stalls, bounding buffered output.
	pending := make(chan chan result, workers)
	done := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for {
				select {
				case j, ok := <-jobs:
					if !ok {
						return
					}
					rct, err := ReEncryptPrepared(j.ct, prk)
					j.out <- result{rct, err} // cap 1: never blocks
				case <-done:
					return
				}
			}
		}()
	}
	go func() { // dispatcher
		defer close(jobs)
		for _, ct := range cts {
			out := make(chan result, 1)
			select {
			case pending <- out:
			case <-done:
				return
			}
			select {
			case jobs <- job{ct, out}:
			case <-done:
				return
			}
		}
	}()
	defer func() {
		close(done)
		wg.Wait()
	}()

	for range cts {
		r := <-<-pending
		if r.err != nil {
			return r.err
		}
		if err := yield(r.rct); err != nil {
			return err
		}
	}
	return nil
}
