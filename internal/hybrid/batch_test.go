package hybrid

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"typepre/internal/core"
)

// batchFixture seals n distinct payloads under one (identity, type) pair
// and prepares the matching proxy key.
func batchFixture(t *testing.T, n int) (*fixture, []*Ciphertext, [][]byte, *core.PreparedReKey) {
	t.Helper()
	f := newFixture(t)
	cts := make([]*Ciphertext, n)
	bodies := make([][]byte, n)
	for i := range cts {
		bodies[i] = []byte(fmt.Sprintf("record %03d body", i))
		ct, err := Encrypt(f.alice, bodies[i], "emergency", nil)
		if err != nil {
			t.Fatal(err)
		}
		cts[i] = ct
	}
	rk, err := f.alice.Delegate(f.kgc2.Params(), "bob@clinic.example", "emergency", nil)
	if err != nil {
		t.Fatal(err)
	}
	return f, cts, bodies, core.PrepareReKey(rk)
}

// The pool is sized by GOMAXPROCS, so each test sets it for its own
// duration with defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w)). That is
// process-wide state: none of these tests may call t.Parallel.

// collect runs ReEncryptStream and gathers its results, decoded, in
// emission order.
func collect(cts []*Ciphertext, prk *core.PreparedReKey) ([]*ReCiphertext, error) {
	var out []*ReCiphertext
	err := ReEncryptStream(cts, prk, func(frame []byte, _ bool) error {
		rct, err := decodeFrame(frame)
		out = append(out, rct)
		return err
	})
	return out, err
}

// decodeFrame checks a frame's length prefix and decodes a copy of its
// container: the stream reuses the frame's buffer after yield, and the
// decoded nonce and payload alias what they were decoded from.
func decodeFrame(frame []byte) (*ReCiphertext, error) {
	if n := binary.BigEndian.Uint32(frame); int(n) != len(frame)-FrameHeader {
		return nil, fmt.Errorf("frame prefix %d, container %d bytes", n, len(frame)-FrameHeader)
	}
	return UnmarshalReCiphertext(bytes.Clone(frame[FrameHeader:]))
}

// TestReEncryptBatchMatchesSerial pins batch re-encryption at every pool
// size to the serial (GOMAXPROCS=1, inline) result: input order kept,
// byte-identical plaintexts after delegatee decryption. Each pool size
// runs on a cold cache, one with every other record cached, and a warm
// one, so hits served inline interleave with misses from the pool.
func TestReEncryptBatchMatchesSerial(t *testing.T) {
	for _, n := range []int{0, 1, 3, 17} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			f, cts, bodies, prk := batchFixture(t, n)
			for _, run := range []struct {
				workers int
				warm    int // warm every warm-th record first; 0 for none
			}{{1, 0}, {4, 0}, {64, 0}, {4, 2}, {64, 2}, {4, 1}} {
				workers := run.workers
				prk = core.PrepareReKey(prk.ReKey())
				for i := 0; run.warm > 0 && i < n; i += run.warm {
					if _, err := ReEncryptPrepared(cts[i], prk); err != nil {
						t.Fatal(err)
					}
				}
				rcts, err := func() ([]*ReCiphertext, error) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
					return collect(cts, prk)
				}()
				if err != nil {
					t.Fatal(err)
				}
				if len(rcts) != n {
					t.Fatalf("workers=%d: got %d results, want %d", workers, len(rcts), n)
				}
				for i, rct := range rcts {
					got, err := DecryptReEncrypted(f.bobKey, rct)
					if err != nil {
						t.Fatalf("workers=%d item %d: %v", workers, i, err)
					}
					if !bytes.Equal(got, bodies[i]) {
						t.Fatalf("workers=%d item %d: plaintext mismatch (order broken?)", workers, i)
					}
				}
			}
		})
	}
}

// TestReEncryptStreamOrderAndBoundedWindow checks ordered emission and
// that a slow consumer throttles dispatch instead of letting results pile
// up: while the consumer holds frame 0, the pool pays at most the
// documented look-ahead of pairings, 2×workers records past the emit
// frontier plus the frame being emitted, however long the stream.
func TestReEncryptStreamOrderAndBoundedWindow(t *testing.T) {
	const workers = 3
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	f, cts, bodies, prk := batchFixture(t, 12)
	var stats core.CacheStats
	prk = core.PrepareReKeyCounted(prk.ReKey(), &stats)
	seen := 0
	err := ReEncryptStream(cts, prk, func(frame []byte, _ bool) error {
		if seen == 0 {
			if misses := settledMisses(&stats); misses > 2*workers+1 {
				return fmt.Errorf("holding frame 0, the pool paid %d pairings; the look-ahead allows %d", misses, 2*workers+1)
			}
		}
		rct, err := decodeFrame(frame)
		if err != nil {
			return err
		}
		got, err := DecryptReEncrypted(f.bobKey, rct)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, bodies[seen]) {
			return fmt.Errorf("item %d out of order", seen)
		}
		seen++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != len(cts) {
		t.Fatalf("yielded %d items, want %d", seen, len(cts))
	}
}

// settledMisses waits until the miss count has not moved for 200 ms, so
// the pool is idle, and returns it.
func settledMisses(stats *core.CacheStats) uint64 {
	_, last, _ := stats.Counts()
	for still := 0; still < 10; {
		time.Sleep(20 * time.Millisecond)
		if _, misses, _ := stats.Counts(); misses != last {
			last, still = misses, 0
		} else {
			still++
		}
	}
	return last
}

// TestReEncryptStreamPropagatesErrors covers both failure sources: a bad
// input ciphertext and a yield that rejects mid-stream.
func TestReEncryptStreamPropagatesErrors(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	_, cts, _, prk := batchFixture(t, 9)
	cts[4] = &Ciphertext{} // nil KEM → ErrDecrypt from ReEncryptPrepared
	err := ReEncryptStream(cts, prk, func([]byte, bool) error { return nil })
	if err == nil {
		t.Fatal("bad ciphertext did not fail the stream")
	}

	_, cts, _, prk = batchFixture(t, 9)
	sentinel := errors.New("consumer says stop")
	yields := 0
	err = ReEncryptStream(cts, prk, func([]byte, bool) error {
		yields++
		if yields == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want the yield error", err)
	}
	if yields != 3 {
		t.Fatalf("yield ran %d times after erroring at 3", yields)
	}
}

// TestReEncryptBatchConcurrentCallers exercises one shared PreparedReKey
// from many streams at once (the race-detector target for the pool and the
// c2′ cache).
func TestReEncryptBatchConcurrentCallers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	f, cts, bodies, prk := batchFixture(t, 8)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rcts, err := collect(cts, prk)
			if err != nil {
				errs <- err
				return
			}
			for i, rct := range rcts {
				got, err := DecryptReEncrypted(f.bobKey, rct)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, bodies[i]) {
					errs <- fmt.Errorf("concurrent caller: item %d mismatch", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestWarmFrameAllocatesNothing checks that a cache hit's frame
// allocates nothing: a warm stream of 16 records allocates no more than a
// warm stream of one, so what a stream allocates is per call, not per
// frame.
func TestWarmFrameAllocatesNothing(t *testing.T) {
	_, cts, _, prk := batchFixture(t, 16)
	yield := func([]byte, bool) error { return nil }
	if err := ReEncryptStream(cts, prk, yield); err != nil { // the misses
		t.Fatal(err)
	}
	one := testing.AllocsPerRun(50, func() { _ = ReEncryptStream(cts[:1], prk, yield) })
	all := testing.AllocsPerRun(50, func() { _ = ReEncryptStream(cts, prk, yield) })
	if all > one {
		t.Fatalf("a warm stream of %d frames allocates %v times, of one frame %v", len(cts), all, one)
	}
}

// TestReEncryptStreamWait checks the wait flag that tells a buffering
// consumer when to flush: a warm stream never waits, so it can leave in
// one write; a cold one waits before every pairing, so each frame can
// reach the wire before the next pairing starts.
func TestReEncryptStreamWait(t *testing.T) {
	for _, workers := range []int{1, 2} {
		_, cts, _, prk := batchFixture(t, 5)
		waits := func() []bool {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
			var out []bool
			if err := ReEncryptStream(cts, prk, func(_ []byte, wait bool) error {
				out = append(out, wait)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			return out
		}
		cold := waits()
		if workers == 1 && fmt.Sprint(cold) != "[true true true true false]" {
			t.Fatalf("inline cold stream waits %v, want before every pairing", cold)
		}
		if warm := waits(); fmt.Sprint(warm) != "[false false false false false]" {
			t.Fatalf("workers=%d: warm stream waits %v, want never", workers, warm)
		}
	}
}
