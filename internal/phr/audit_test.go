package phr

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// Audit-log invariants: strict per-proxy ordering, a denial entry on every
// error path, and view consistency under concurrent appends (run with
// -race in CI).

// assertStrictlyOrdered checks Seq is strictly increasing and Time is
// non-decreasing over a proxy's entries.
func assertStrictlyOrdered(t *testing.T, entries []AuditEntry) {
	t.Helper()
	for i := 1; i < len(entries); i++ {
		if entries[i].Seq <= entries[i-1].Seq {
			t.Fatalf("entry %d: Seq %d not after %d", i, entries[i].Seq, entries[i-1].Seq)
		}
		if entries[i].Time.Before(entries[i-1].Time) {
			t.Fatalf("entry %d: Time went backwards", i)
		}
	}
}

// assertGapless checks a proxy's whole log: Seq runs 1..n with no gap
// and Time never decreases.
func assertGapless(t *testing.T, entries []AuditEntry) {
	t.Helper()
	for i, e := range entries {
		if e.Seq != uint64(i+1) {
			t.Fatalf("entry %d has Seq %d, want %d", i, e.Seq, i+1)
		}
		if i > 0 && e.Time.Before(entries[i-1].Time) {
			t.Fatalf("entry %d: Time went backwards", i)
		}
	}
}

func TestAuditSeqStrictlyOrderedUnderConcurrentAppends(t *testing.T) {
	log := NewAuditLog()
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				log.Append(AuditEntry{
					Proxy:     "p",
					Requester: fmt.Sprintf("req-%d", w%3),
					Outcome:   []Outcome{OutcomeGranted, OutcomeNoGrant, OutcomeBreakGlass}[i%3],
				})
			}
		}(w)
	}
	wg.Wait()
	entries := log.Tail(0)
	if len(entries) != writers*perWriter {
		t.Fatalf("entries = %d, want %d", len(entries), writers*perWriter)
	}
	assertGapless(t, entries)
}

func TestAuditDenialOnEveryErrorPath(t *testing.T) {
	s := newScenario(t)
	rec, err := s.alice.AddRecord(s.svc.Store, CategoryEmergency, []byte("x"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := grantAt(s.svc, s.alice, s.kgc2.Params(), s.bobKey.ID, CategoryEmergency); err != nil {
		t.Fatal(err)
	}
	proxy, _ := s.svc.ProxyFor(CategoryEmergency)

	// Each error path must append exactly one denial with its own outcome.
	steps := []struct {
		name    string
		act     func() error
		outcome Outcome
	}{
		{"unknown requester", func() error {
			_, err := readRecord(s.svc, rec.ID, s.eveKey)
			return err
		}, OutcomeNoGrant},
		{"rotated-away key", func() error {
			if _, err := s.alice.RotateTypeKey(s.svc.Store, CategoryEmergency, nil); err != nil {
				return fmt.Errorf("rotate: %w", err)
			}
			_, err := readRecord(s.svc, rec.ID, s.bobKey)
			if !errors.Is(err, ErrStaleGrant) {
				return fmt.Errorf("want ErrStaleGrant, got %v", err)
			}
			return err
		}, OutcomeStaleGrant},
		{"revoked", func() error {
			if err := revoke(s.alice, proxy, s.bobKey.ID, CategoryEmergency); err != nil {
				return fmt.Errorf("revoke: %w", err)
			}
			_, err := readRecord(s.svc, rec.ID, s.bobKey)
			return err
		}, OutcomeNoGrant},
	}
	for _, step := range steps {
		before := len(denials(proxy.Audit()))
		if err := step.act(); err == nil {
			t.Fatalf("%s: expected an error", step.name)
		}
		denials := denials(proxy.Audit())
		if len(denials) != before+1 {
			t.Fatalf("%s: denials %d → %d, want exactly one new entry", step.name, before, len(denials))
		}
		if got := denials[len(denials)-1].Outcome; got != step.outcome {
			t.Fatalf("%s: denial outcome = %s, want %s", step.name, got, step.outcome)
		}
	}
	assertStrictlyOrdered(t, proxy.Audit().Tail(0))
}

func TestAuditViewsConsistentUnderConcurrency(t *testing.T) {
	// Tail snapshots, and the per-requester and denial views filtered from
	// them, must be consistent while writers append: no torn reads, and
	// the final views partition the log.
	log := NewAuditLog()
	requesters := []string{"a", "b", "c"}
	outcomes := []Outcome{OutcomeGranted, OutcomeNoGrant, OutcomeBreakGlass, OutcomeStaleGrant}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					for _, req := range requesters {
						byRequester(log, req)
					}
					denials(log)
					log.Tail(0)
				}
			}
		}()
	}
	const writers, perWriter = 6, 40
	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < perWriter; i++ {
				log.Append(AuditEntry{
					Requester: requesters[(w+i)%len(requesters)],
					Outcome:   outcomes[i%len(outcomes)],
				})
			}
		}(w)
	}
	writerWG.Wait()
	close(stop)
	wg.Wait()

	total := writers * perWriter
	if log.Len() != total {
		t.Fatalf("Len = %d, want %d", log.Len(), total)
	}
	// The per-requester views partition the log and preserve order.
	sum := 0
	for _, req := range requesters {
		view := byRequester(log, req)
		sum += len(view)
		assertStrictlyOrdered(t, view)
	}
	if sum != total {
		t.Fatalf("ByRequester views cover %d entries, want %d", sum, total)
	}
	// Denials + successful disclosures account for every entry.
	granted := len(byOutcome(log, OutcomeGranted)) + len(byOutcome(log, OutcomeBreakGlass))
	if got := len(denials(log)) + granted; got != total {
		t.Fatalf("denials+successes = %d, want %d", got, total)
	}
}
