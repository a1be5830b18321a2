// Package diskstore is the crash-safe on-disk phr.Backend: an append-only
// segment log with an in-memory index, built for a semi-trusted record
// server that must survive restarts (and SIGKILL) without losing an
// acknowledged write.
//
// Layout: the data directory holds numbered segment files
// (seg-00000001.log, …). Every write — put, replace, delete — is one
// length-prefixed, CRC-framed entry appended to the active segment:
//
//	u32 len(payload) | u32 crc32(payload) | payload
//	payload = op byte (put=1, replace=2, delete=3) ++ body
//
// put/replace bodies are the record wire form (phr.MarshalRecord); delete
// bodies are the raw record ID. The log is the only durable state: the
// primary index (ID → log location) and the secondary indexes (patient,
// patient+category) live in memory and are rebuilt by replaying the
// segments on Open. Sealed bodies stay on disk — memory holds metadata
// and offsets only, so the store's footprint is bounded by record count,
// not record bytes.
//
// Recovery is WAL-style: replay stops at the first torn frame (short
// header, short body, or CRC mismatch) in the final segment and truncates
// the tail there — a crash mid-append loses at most the unacknowledged
// entry being written. A broken frame in any non-final segment is real
// corruption and fails Open. Segments rotate at Options.SegmentBytes;
// Compact rewrites live entries into fresh segments and drops
// deleted/replaced garbage.
//
// Durability is governed by Options.Fsync: FsyncAlways syncs the active
// segment before a write is acknowledged (a crash loses nothing
// acknowledged); FsyncInterval syncs on a background interval (a crash
// loses at most the last interval's acknowledged writes). See
// docs/storage.md for the full format and policy discussion.
//
// The store is safe for concurrent use by one process. It takes no
// directory lock: running two stores over one directory corrupts it.
package diskstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"typepre/internal/phr"
)

// Log entry opcodes.
const (
	opPut     = 1
	opReplace = 2
	opDelete  = 3
)

// frameHeaderLen is u32 payload length + u32 CRC32 (IEEE) of the payload.
const frameHeaderLen = 8

// maxFrameBytes bounds a single entry; an absurd length prefix during
// replay is treated like a torn frame, never allocated.
const maxFrameBytes = 1 << 30

// ErrCorrupt marks a broken frame outside the recoverable tail position —
// data loss that truncation cannot honestly repair. It wraps
// phr.ErrStorage.
var ErrCorrupt = errors.New("diskstore: corrupt segment")

// FsyncMode selects the durability policy for acknowledged writes.
type FsyncMode int

const (
	// FsyncAlways syncs the active segment before every write returns:
	// an acknowledged write survives any crash.
	FsyncAlways FsyncMode = iota
	// FsyncInterval syncs on a background interval: a crash loses at most
	// the acknowledged writes of the last interval.
	FsyncInterval
)

// ParseFsyncMode parses the phrserver flag form ("always", "interval").
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	}
	return 0, fmt.Errorf("diskstore: unknown fsync mode %q (have always, interval)", s)
}

// Options configures a Store. The zero value is usable: 64 MiB segments,
// FsyncAlways.
type Options struct {
	// SegmentBytes is the rotation threshold of the active segment.
	SegmentBytes int64
	// Fsync is the durability policy (default FsyncAlways).
	Fsync FsyncMode
	// FsyncInterval is the background sync period in FsyncInterval mode
	// (default 100ms).
	FsyncInterval time.Duration
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = 100 * time.Millisecond
	}
	return o
}

// RecoveryStats reports what Open replayed and repaired.
type RecoveryStats struct {
	// Segments replayed.
	Segments int
	// Entries replayed across all segments.
	Entries int
	// Records live after replay.
	Records int
	// TruncatedBytes dropped from the final segment's torn tail (0 on a
	// clean shutdown).
	TruncatedBytes int64
}

// Stats is a point-in-time report of the store's shape.
type Stats struct {
	Records      int
	Segments     int
	LiveBytes    int64 // payload bytes of live entries
	GarbageBytes int64 // payload bytes of replaced/deleted entries still on disk
	Recovery     RecoveryStats
}

// entryLoc is one live record's position in the log plus the routing
// metadata needed without a disk read.
type entryLoc struct {
	seg      int
	off      int64 // payload offset (past the frame header)
	n        int32 // payload length (op byte included)
	patient  string
	category phr.Category
}

// Store is the on-disk Backend. All methods are safe for concurrent use.
type Store struct {
	dir  string
	opts Options

	mu     sync.RWMutex
	closed bool

	index   map[string]entryLoc // record ID → log location
	records phr.RecordIndex     // phrlint:guardedby mu

	segs       map[int]*os.File
	activeID   int
	activeSize int64
	dirty      bool // unsynced appends on the active segment

	liveBytes    int64
	garbageBytes int64
	recovery     RecoveryStats

	flushStop chan struct{}
	flushDone chan struct{}
}

// Store implements phr.Backend.
var _ phr.Backend = (*Store)(nil)

func segName(id int) string { return fmt.Sprintf("seg-%08d.log", id) }

func parseSegName(name string) (int, bool) {
	if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	id, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".log"))
	if err != nil || id <= 0 {
		return 0, false
	}
	return id, true
}

// Open opens (or creates) a store over dir, replaying every segment to
// rebuild the indexes and truncating a torn tail left by a crash.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("%w: %w", phr.ErrStorage, err)
	}
	s := &Store{
		dir:   dir,
		opts:  opts,
		index: map[string]entryLoc{},
		segs:  map[int]*os.File{},
	}
	// Nothing else can reach s yet; the lock only states that replay
	// writes the indexes under it, like every later write.
	s.mu.Lock()
	defer s.mu.Unlock()

	ids, err := s.segmentIDs()
	if err != nil {
		return nil, err
	}
	for i, id := range ids {
		if err := s.replaySegment(id, i == len(ids)-1); err != nil {
			s.closeFiles()
			return nil, err
		}
	}
	if len(ids) == 0 {
		if err := s.createSegment(1); err != nil {
			return nil, err
		}
	} else {
		s.activeID = ids[len(ids)-1]
		fi, err := s.segs[s.activeID].Stat()
		if err != nil {
			s.closeFiles()
			return nil, fmt.Errorf("%w: %w", phr.ErrStorage, err)
		}
		s.activeSize = fi.Size()
	}
	s.recovery.Records = len(s.index)

	if opts.Fsync == FsyncInterval {
		s.flushStop = make(chan struct{})
		s.flushDone = make(chan struct{})
		go s.flushLoop()
	}
	return s, nil
}

func (s *Store) segmentIDs() ([]int, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", phr.ErrStorage, err)
	}
	var ids []int
	for _, e := range entries {
		if id, ok := parseSegName(e.Name()); ok && !e.IsDir() {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids, nil
}

// replaySegment scans one segment sequentially, applying every valid
// entry to the in-memory indexes. A broken frame in the final segment is
// a torn tail: the file is truncated at the last valid frame boundary. A
// broken frame anywhere else fails with ErrCorrupt.
//
// phrlint:locked mu — Open holds the write lock during replay.
func (s *Store) replaySegment(id int, last bool) error {
	path := filepath.Join(s.dir, segName(id))
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("%w: %w", phr.ErrStorage, err)
	}
	s.segs[id] = f
	s.recovery.Segments++

	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("%w: %w", phr.ErrStorage, err)
	}
	size := fi.Size()

	var off int64
	var header [frameHeaderLen]byte
	var payload []byte
	for off < size {
		torn := func(why string) error {
			if !last {
				return fmt.Errorf("%w: %w: segment %d offset %d: %s (only the final segment may have a torn tail)",
					phr.ErrStorage, ErrCorrupt, id, off, why)
			}
			// WAL recovery: drop the torn tail, keep the valid prefix.
			if err := f.Truncate(off); err != nil {
				return fmt.Errorf("%w: truncating torn tail: %w", phr.ErrStorage, err)
			}
			if err := f.Sync(); err != nil {
				return fmt.Errorf("%w: %w", phr.ErrStorage, err)
			}
			s.recovery.TruncatedBytes += size - off
			return nil
		}
		if size-off < frameHeaderLen {
			return torn("short frame header")
		}
		if _, err := f.ReadAt(header[:], off); err != nil {
			return fmt.Errorf("%w: %w", phr.ErrStorage, err)
		}
		n := binary.BigEndian.Uint32(header[:4])
		crc := binary.BigEndian.Uint32(header[4:])
		if n == 0 || n > maxFrameBytes {
			return torn(fmt.Sprintf("frame declares %d bytes", n))
		}
		if size-off-frameHeaderLen < int64(n) {
			return torn("short frame body")
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := f.ReadAt(payload, off+frameHeaderLen); err != nil {
			return fmt.Errorf("%w: %w", phr.ErrStorage, err)
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return torn("CRC mismatch")
		}
		if err := s.applyEntry(id, off+frameHeaderLen, payload); err != nil {
			// A frame with a valid CRC but an undecodable body was written
			// whole and then damaged — not a torn write; truncation would
			// silently discard committed data.
			return fmt.Errorf("%w: %w: segment %d offset %d: %w", phr.ErrStorage, ErrCorrupt, id, off, err)
		}
		s.recovery.Entries++
		off += frameHeaderLen + int64(n)
	}
	return nil
}

// applyEntry replays one decoded payload into the indexes. Replay is an
// upsert for put/replace and a no-op delete for unknown IDs: compaction
// may leave overlapping segments behind a crash, and later entries win.
//
// phrlint:locked mu
func (s *Store) applyEntry(seg int, off int64, payload []byte) error {
	switch payload[0] {
	case opPut, opReplace:
		rec, err := phr.UnmarshalRecord(payload[1:])
		if err != nil {
			return err
		}
		loc := entryLoc{seg: seg, off: off, n: int32(len(payload)), patient: rec.PatientID, category: rec.Category}
		if old, ok := s.index[rec.ID]; ok {
			s.garbageBytes += int64(old.n)
			s.liveBytes -= int64(old.n)
		} else {
			s.records.Add(rec.ID, rec.PatientID, rec.Category)
		}
		s.index[rec.ID] = loc
		s.liveBytes += int64(len(payload))
		return nil
	case opDelete:
		id := string(payload[1:])
		if old, ok := s.index[id]; ok {
			s.dropFromIndex(id, old)
		}
		return nil
	default:
		return fmt.Errorf("unknown opcode %d", payload[0])
	}
}

// dropFromIndex forgets a deleted record.
//
// phrlint:locked mu
func (s *Store) dropFromIndex(id string, loc entryLoc) {
	delete(s.index, id)
	s.garbageBytes += int64(loc.n)
	s.liveBytes -= int64(loc.n)
	s.records.Remove(id, loc.patient, loc.category)
}

func (s *Store) createSegment(id int) error {
	path := filepath.Join(s.dir, segName(id))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("%w: %w", phr.ErrStorage, err)
	}
	s.segs[id] = f
	s.activeID = id
	s.activeSize = 0
	return s.syncDir()
}

// syncDir fsyncs the data directory so segment creation/removal survives
// a crash (best effort on platforms where directory fsync fails).
func (s *Store) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return fmt.Errorf("%w: %w", phr.ErrStorage, err)
	}
	defer d.Close()
	d.Sync()
	return nil
}

// appendEntry writes one framed payload to the active segment, applying
// the fsync policy and rotating past the size threshold. Caller holds mu.
func (s *Store) appendEntry(payload []byte) (seg int, off int64, err error) {
	frame := make([]byte, frameHeaderLen+len(payload))
	binary.BigEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[frameHeaderLen:], payload)

	f := s.segs[s.activeID]
	if _, err := f.WriteAt(frame, s.activeSize); err != nil {
		return 0, 0, fmt.Errorf("%w: append: %w", phr.ErrStorage, err)
	}
	seg, off = s.activeID, s.activeSize+frameHeaderLen
	s.activeSize += int64(len(frame))

	if s.opts.Fsync == FsyncAlways {
		if err := f.Sync(); err != nil {
			return 0, 0, fmt.Errorf("%w: fsync: %w", phr.ErrStorage, err)
		}
	} else {
		s.dirty = true
	}

	if s.activeSize >= s.opts.SegmentBytes {
		// Rotate: seal the full segment (sync it so the rotation boundary
		// is durable) and start the next one.
		if err := f.Sync(); err != nil {
			return 0, 0, fmt.Errorf("%w: fsync: %w", phr.ErrStorage, err)
		}
		s.dirty = false
		if err := s.createSegment(s.activeID + 1); err != nil {
			return 0, 0, err
		}
	}
	return seg, off, nil
}

// readPayload fetches one live entry's payload. Caller holds mu (read or
// write): segment files are only removed under the write lock.
func (s *Store) readPayload(loc entryLoc) ([]byte, error) {
	f, ok := s.segs[loc.seg]
	if !ok {
		return nil, fmt.Errorf("%w: segment %d vanished", phr.ErrStorage, loc.seg)
	}
	payload := make([]byte, loc.n)
	if _, err := f.ReadAt(payload, loc.off); err != nil {
		return nil, fmt.Errorf("%w: read: %w", phr.ErrStorage, err)
	}
	return payload, nil
}

func (s *Store) decodeRecord(loc entryLoc) (*phr.EncryptedRecord, error) {
	payload, err := s.readPayload(loc)
	if err != nil {
		return nil, err
	}
	rec, err := phr.UnmarshalRecord(payload[1:])
	if err != nil {
		return nil, fmt.Errorf("%w: %w", phr.ErrStorage, err)
	}
	return rec, nil
}

func (s *Store) flushLoop() {
	defer close(s.flushDone)
	t := time.NewTicker(s.opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.mu.Lock()
			if s.dirty && !s.closed {
				s.segs[s.activeID].Sync()
				s.dirty = false
			}
			s.mu.Unlock()
		case <-s.flushStop:
			return
		}
	}
}

// ---------------------------------------------------------------------------
// phr.Backend
// ---------------------------------------------------------------------------

func encodeRecordPayload(op byte, r *phr.EncryptedRecord) []byte {
	return phr.MarshalRecord([]byte{op}, r)
}

// Put inserts a record; ErrDuplicate if the ID exists.
func (s *Store) Put(r *phr.EncryptedRecord) error {
	if r == nil || r.ID == "" {
		return fmt.Errorf("phr: invalid record")
	}
	payload := encodeRecordPayload(opPut, r)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("%w: store closed", phr.ErrStorage)
	}
	if _, ok := s.index[r.ID]; ok {
		return fmt.Errorf("%w: %s", phr.ErrDuplicate, r.ID)
	}
	seg, off, err := s.appendEntry(payload)
	if err != nil {
		return err
	}
	s.index[r.ID] = entryLoc{seg: seg, off: off, n: int32(len(payload)), patient: r.PatientID, category: r.Category}
	s.records.Add(r.ID, r.PatientID, r.Category)
	s.liveBytes += int64(len(payload))
	return nil
}

// Replace swaps the sealed body of an existing record; the routing
// metadata must not change.
func (s *Store) Replace(r *phr.EncryptedRecord) error {
	if r == nil || r.ID == "" {
		return fmt.Errorf("phr: invalid record")
	}
	payload := encodeRecordPayload(opReplace, r)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("%w: store closed", phr.ErrStorage)
	}
	old, ok := s.index[r.ID]
	if !ok {
		return fmt.Errorf("%w: %s", phr.ErrNotFound, r.ID)
	}
	if old.patient != r.PatientID || old.category != r.Category {
		return fmt.Errorf("phr: replace of %s cannot change routing metadata", r.ID)
	}
	seg, off, err := s.appendEntry(payload)
	if err != nil {
		return err
	}
	s.index[r.ID] = entryLoc{seg: seg, off: off, n: int32(len(payload)), patient: old.patient, category: old.category}
	s.garbageBytes += int64(old.n)
	s.liveBytes += int64(len(payload)) - int64(old.n)
	return nil
}

// Get fetches a record by ID.
func (s *Store) Get(id string) (*phr.EncryptedRecord, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, fmt.Errorf("%w: store closed", phr.ErrStorage)
	}
	loc, ok := s.index[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", phr.ErrNotFound, id)
	}
	return s.decodeRecord(loc)
}

// Delete removes a record by ID, appending a tombstone.
//
// phrlint:root pending Restart without amnesia (ROADMAP)
func (s *Store) Delete(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("%w: store closed", phr.ErrStorage)
	}
	loc, ok := s.index[id]
	if !ok {
		return fmt.Errorf("%w: %s", phr.ErrNotFound, id)
	}
	payload := append([]byte{opDelete}, id...)
	if _, _, err := s.appendEntry(payload); err != nil {
		return err
	}
	s.dropFromIndex(id, loc)
	return nil
}

func (s *Store) list(ids []string) ([]*phr.EncryptedRecord, error) {
	out := make([]*phr.EncryptedRecord, 0, len(ids))
	for _, id := range ids {
		rec, err := s.decodeRecord(s.index[id])
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, nil
}

// ListByPatient returns all records of a patient in insertion order.
func (s *Store) ListByPatient(patientID string) ([]*phr.EncryptedRecord, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, fmt.Errorf("%w: store closed", phr.ErrStorage)
	}
	return s.list(s.records.IDs(patientID))
}

// ListByPatientCategory returns a patient's records of one category in
// insertion order.
func (s *Store) ListByPatientCategory(patientID string, c phr.Category) ([]*phr.EncryptedRecord, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, fmt.Errorf("%w: store closed", phr.ErrStorage)
	}
	return s.list(s.records.IDsIn(patientID, c))
}

// Count returns the total number of records.
func (s *Store) Count() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Patients returns the sorted patient IDs with at least one record.
func (s *Store) Patients() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.records.Patients()
}

// Close flushes the active segment and releases every file handle. After
// Close every method fails with phr.ErrStorage.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	var err error
	if f := s.segs[s.activeID]; f != nil {
		err = f.Sync()
	}
	s.closeFiles()
	s.mu.Unlock()

	if s.flushStop != nil {
		close(s.flushStop)
		<-s.flushDone
	}
	if err != nil {
		return fmt.Errorf("%w: %w", phr.ErrStorage, err)
	}
	return nil
}

func (s *Store) closeFiles() {
	for _, f := range s.segs {
		f.Close()
	}
	s.segs = map[int]*os.File{}
}

// Recovery reports what Open replayed and repaired.
func (s *Store) Recovery() RecoveryStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.recovery
}

// Stats reports the store's current shape.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		Records:      len(s.index),
		Segments:     len(s.segs),
		LiveBytes:    s.liveBytes,
		GarbageBytes: s.garbageBytes,
		Recovery:     s.recovery,
	}
}

var _ io.Closer = (*Store)(nil)
