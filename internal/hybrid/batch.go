package hybrid

import (
	"encoding/binary"
	"runtime"
	"sync"

	"typepre/internal/core"
)

// Batch re-encryption: the disclosure hot path. A proxy serving "disclose
// my whole emergency file" transforms many sealed records with one
// prepared proxy key. A record whose c2′ the key has cached (see
// core.PreparedReKey) is a lookup and a copy, done on the calling
// goroutine; only the records that need a pairing go to a worker pool,
// where they parallelize perfectly. ReEncryptStream hands the results back
// in input order as wire frames, so a caller can write them to the network
// without buffering the batch.

// FrameHeader is the length of a frame's prefix: the length of the
// container that follows it, 4 bytes big-endian. The bulk-disclosure
// stream is a sequence of frames.
const FrameHeader = 4

// framePool recycles ReEncryptStream's frame buffers across calls and
// goroutines. A buffer grows to the largest frame it has carried.
var framePool = sync.Pool{
	New: func() any { b := make([]byte, 0, 4096); return &b },
}

// ReEncryptStream transforms every ciphertext with the prepared proxy key
// and calls yield exactly once per input, in input order, with its frame:
// FrameHeader bytes of length, then the AppendTo encoding of
// ReEncryptPrepared(ct, prk). The frame's buffer is reused after yield
// returns. wait reports that the next frame is not ready yet, so the
// stream is about to wait for a pairing; a consumer that buffers its
// writes should flush then. It is false for the last frame.
//
// Records whose c2′ is cached are served on the calling goroutine. The
// others go to a pool of workers = runtime.GOMAXPROCS(0) goroutines, which
// starts at the first such record (the calling goroutine pairs them itself
// when that or len(cts) is 1). The stream looks up at most 2×workers
// records past the emit frontier, so at most that many pairings are in
// flight or waiting to be emitted, whatever len(cts).
//
// The first re-encryption or yield error, in input order, stops the stream
// and is returned; yield is never called again after it returns an error.
func ReEncryptStream(cts []*Ciphertext, prk *core.PreparedReKey, yield func(frame []byte, wait bool) error) error {
	bp := framePool.Get().(*[]byte)
	defer framePool.Put(bp)
	s := stream{cts: cts, prk: prk, slots: make([]slot, len(cts)), workers: min(runtime.GOMAXPROCS(0), len(cts))}
	defer s.stop()

	for i := range cts {
		// Look ahead, starting misses: a window of two workers' worth
		// keeps every worker busy while a result waits for its turn, and
		// tells whether the next frame is ready.
		for s.probed < len(cts) && s.probed-i < s.window() {
			s.probe()
		}
		sl := &s.slots[i]
		if sl.done != nil {
			r := <-sl.done
			sl.e, sl.err = r.e, r.err
		}
		if sl.e == nil && sl.err == nil { // a miss left to this goroutine
			sl.e, sl.err = prk.Transform(cts[i].KEM)
		}
		if sl.err != nil {
			return sl.err
		}
		frame := append((*bp)[:0], 0, 0, 0, 0)
		frame = appendReEncoded(frame, cts[i], prk, sl.e)
		binary.BigEndian.PutUint32(frame, uint32(len(frame)-FrameHeader))
		*bp = frame
		if err := yield(frame, i+1 < len(cts) && !s.ready(i+1)); err != nil {
			return err
		}
	}
	return nil
}

// stream is one ReEncryptStream call's state. The calling goroutine owns
// it; workers read only the fields fixed before they start, and a
// dispatched slot's done channel, which the send on jobs orders after its
// write.
type stream struct {
	cts     []*Ciphertext
	prk     *core.PreparedReKey
	slots   []slot
	workers int

	probed int // cts[:probed] are looked up, and their misses dispatched

	jobs chan int      // indexes of misses, to the pool; nil until it starts
	quit chan struct{} // closed when the stream ends
	wg   sync.WaitGroup
}

// window is how many records past the emit frontier the stream looks up.
func (s *stream) window() int { return 2 * s.workers }

// slot is the state of one input: its re-encoding or error once known,
// and for a miss sent to the pool, the channel its result arrives on.
type slot struct {
	e    *core.ReEncoding
	err  error
	done chan result
}

type result struct {
	e   *core.ReEncoding
	err error
}

// probe looks up the next input. A miss goes to the pool when there is
// one; with a single worker it is left for the calling goroutine.
func (s *stream) probe() {
	i := s.probed
	s.probed++
	sl := &s.slots[i]
	if s.cts[i] == nil || s.cts[i].KEM == nil {
		sl.err = ErrDecrypt
		return
	}
	if sl.e, sl.err = s.prk.Lookup(s.cts[i].KEM); sl.e != nil || sl.err != nil || s.workers <= 1 {
		return
	}
	if s.jobs == nil {
		s.start()
	}
	sl.done = make(chan result, 1)
	s.jobs <- i // never blocks: the window bounds the misses in flight
}

// start launches the worker pool.
func (s *stream) start() {
	s.jobs = make(chan int, s.window())
	s.quit = make(chan struct{})
	s.wg.Add(s.workers)
	for range s.workers {
		go func() {
			defer s.wg.Done()
			for i := range s.jobs {
				select {
				case <-s.quit: // the stream ended: skip the pairing
					continue
				default:
				}
				e, err := s.prk.Transform(s.cts[i].KEM)
				s.slots[i].done <- result{e, err} // cap 1: never blocks
			}
		}()
	}
}

// ready reports whether input i's frame can be built without waiting.
func (s *stream) ready(i int) bool {
	if i >= s.probed {
		return false
	}
	sl := &s.slots[i]
	if sl.done != nil {
		return len(sl.done) > 0
	}
	return sl.e != nil || sl.err != nil
}

// stop ends the pool, if it started, and waits for its workers: a pairing
// already under way finishes, queued ones are skipped.
func (s *stream) stop() {
	if s.jobs == nil {
		return
	}
	close(s.quit)
	close(s.jobs)
	s.wg.Wait()
}
