package hybrid

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

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

// collect runs ReEncryptStream and gathers its results in emission order.
func collect(cts []*Ciphertext, prk *core.PreparedReKey) ([]*ReCiphertext, error) {
	var out []*ReCiphertext
	err := ReEncryptStream(cts, prk, func(rct *ReCiphertext) error {
		out = append(out, rct)
		return nil
	})
	return out, err
}

// TestReEncryptBatchMatchesSerial pins batch re-encryption at every pool
// size to the serial (GOMAXPROCS=1, inline) result: input order kept,
// byte-identical plaintexts after delegatee decryption.
func TestReEncryptBatchMatchesSerial(t *testing.T) {
	for _, n := range []int{0, 1, 3, 17} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			f, cts, bodies, prk := batchFixture(t, n)
			for _, workers := range []int{1, 4, 64} {
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

// TestReEncryptStreamOrderAndBoundedWindow checks ordered emission and that
// a slow consumer throttles dispatch instead of letting results pile up.
func TestReEncryptStreamOrderAndBoundedWindow(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	f, cts, bodies, prk := batchFixture(t, 12)
	seen := 0
	err := ReEncryptStream(cts, prk, func(rct *ReCiphertext) error {
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

// TestReEncryptStreamPropagatesErrors covers both failure sources: a bad
// input ciphertext and a yield that rejects mid-stream.
func TestReEncryptStreamPropagatesErrors(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	_, cts, _, prk := batchFixture(t, 9)
	cts[4] = &Ciphertext{} // nil KEM → ErrDecrypt from ReEncryptPrepared
	err := ReEncryptStream(cts, prk, func(*ReCiphertext) error { return nil })
	if err == nil {
		t.Fatal("bad ciphertext did not fail the stream")
	}

	_, cts, _, prk = batchFixture(t, 9)
	sentinel := errors.New("consumer says stop")
	yields := 0
	err = ReEncryptStream(cts, prk, func(*ReCiphertext) error {
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
// adjustment cache).
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
