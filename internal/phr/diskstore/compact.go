package diskstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"typepre/internal/phr"
)

// Compact rewrites every live record into fresh segments and deletes the
// old ones, reclaiming the space of replaced and deleted entries. The
// pass is crash-safe by ordering, not by atomicity:
//
//  1. live entries are copied into new segments numbered after the
//     current active one, and synced;
//  2. only then are the old segment files removed, oldest first.
//
// A crash at any point leaves a directory whose replay converges to the
// same records: replay treats put as upsert, so surviving old entries are
// overridden by the compacted copies that follow them, and a tombstone
// can never outlive the put it deletes (the put's segment is always
// removed first).
//
// Compact holds the write lock for its duration — reads and writes stall.
// Call it from an operational window, not a request path.
//
// phrlint:root pending Restart without amnesia (ROADMAP)
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("%w: store closed", phr.ErrStorage)
	}

	oldIDs := make([]int, 0, len(s.segs))
	for id := range s.segs {
		oldIDs = append(oldIDs, id)
	}
	sort.Ints(oldIDs)

	// Seal the current log: everything from here on goes to new segments.
	if s.dirty {
		if err := s.segs[s.activeID].Sync(); err != nil {
			return fmt.Errorf("%w: fsync: %w", phr.ErrStorage, err)
		}
		s.dirty = false
	}
	if err := s.createSegment(s.activeID + 1); err != nil {
		return err
	}

	// Copy live entries in deterministic order (sorted patients,
	// insertion order within a patient). Payload bytes are copied
	// verbatim off disk; a replace entry becomes a put in the new log.
	newLocs := make(map[string]entryLoc, len(s.index))
	var liveBytes int64
	for _, p := range s.records.Patients() {
		for _, id := range s.records.IDs(p) {
			loc := s.index[id]
			payload, err := s.readPayload(loc)
			if err != nil {
				return err
			}
			payload[0] = opPut
			seg, off, err := s.appendEntry(payload, false)
			if err != nil {
				return err
			}
			newLocs[id] = entryLoc{seg: seg, off: off, n: int32(len(payload)), patient: loc.patient, category: loc.category}
			liveBytes += int64(len(payload))
		}
	}
	// Make the compacted copies durable before any old entry disappears.
	if err := s.segs[s.activeID].Sync(); err != nil {
		return fmt.Errorf("%w: fsync: %w", phr.ErrStorage, err)
	}
	s.dirty = false

	// Point the index at the new copies, then drop the old segments,
	// oldest first.
	for id, loc := range newLocs {
		s.index[id] = loc
	}
	for _, id := range oldIDs {
		if f, ok := s.segs[id]; ok {
			f.Close()
			delete(s.segs, id)
		}
		if err := os.Remove(filepath.Join(s.dir, segName(id))); err != nil {
			return fmt.Errorf("%w: removing %s: %w", phr.ErrStorage, segName(id), err)
		}
	}
	if err := s.syncDir(); err != nil {
		return err
	}
	s.liveBytes = liveBytes
	s.garbageBytes = 0
	return nil
}
