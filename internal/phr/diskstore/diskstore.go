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
// Reads trust the log: a put's ciphertext was checked when it was
// uploaded, so Get and the List methods verify a frame's CRC and decode
// its record with phr.UnmarshalTrustedRecord (no curve or subgroup work),
// and replay parses a record's routing metadata only (phr.RecordRoute).
// docs/storage.md lists what is checked where.
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
	closed bool // phrlint:guardedby mu

	index   map[string]entryLoc // phrlint:guardedby mu — record ID → log location
	records phr.RecordIndex     // phrlint:guardedby mu

	segs       map[int]*os.File // phrlint:guardedby mu
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

// applyEntry replays one payload into the indexes. Replay is an upsert
// for put/replace and a no-op delete for unknown IDs: compaction may leave
// overlapping segments behind a crash, and later entries win. A put or
// replace is parsed for its ID and routing metadata only
// (phr.RecordRoute): its ciphertext is decoded when the record is read.
//
// phrlint:locked mu
func (s *Store) applyEntry(seg int, off int64, payload []byte) error {
	switch payload[0] {
	case opPut, opReplace:
		id, patient, category, err := phr.RecordRoute(payload[1:])
		if err != nil {
			return err
		}
		loc := entryLoc{seg: seg, off: off, n: int32(len(payload)), patient: patient, category: category}
		if old, ok := s.index[id]; ok {
			s.garbageBytes += int64(old.n)
			s.liveBytes -= int64(old.n)
		} else {
			s.records.Add(id, patient, category)
		}
		s.index[id] = loc
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

// createSegment creates segment id and makes it the active one.
//
// phrlint:locked mu
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

// newFrame returns the buffer of one log entry: frameHeaderLen bytes of
// room for the header, then op, with capacity for size more bytes.
func newFrame(op byte, size int) []byte {
	frame := make([]byte, frameHeaderLen+1, frameHeaderLen+1+size)
	frame[frameHeaderLen] = op
	return frame
}

// appendEntry fills in the u32 len | u32 crc header of frame, a buffer
// from newFrame with the entry's payload after the header, writes the
// frame to the active segment and returns where the payload landed. It
// rotates past the size threshold, syncing the full segment first;
// otherwise it syncs when syncNow is set and marks the segment dirty when
// not.
//
// phrlint:locked mu
func (s *Store) appendEntry(frame []byte, syncNow bool) (seg int, off int64, err error) {
	payload := frame[frameHeaderLen:]
	binary.BigEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))

	f := s.segs[s.activeID]
	if _, err := f.WriteAt(frame, s.activeSize); err != nil {
		return 0, 0, fmt.Errorf("%w: append: %w", phr.ErrStorage, err)
	}
	seg, off = s.activeID, s.activeSize+frameHeaderLen
	s.activeSize += int64(len(frame))

	switch {
	case s.activeSize >= s.opts.SegmentBytes:
		// Rotate: seal the full segment (sync it so the rotation boundary
		// is durable) and start the next one.
		if err := f.Sync(); err != nil {
			return 0, 0, fmt.Errorf("%w: fsync: %w", phr.ErrStorage, err)
		}
		s.dirty = false
		if err := s.createSegment(s.activeID + 1); err != nil {
			return 0, 0, err
		}
	case syncNow:
		if err := f.Sync(); err != nil {
			return 0, 0, fmt.Errorf("%w: fsync: %w", phr.ErrStorage, err)
		}
	default:
		s.dirty = true
	}
	return seg, off, nil
}

// readFrame reads one live entry's frame, header included, as written;
// checkFrame verifies it.
//
// phrlint:locked mu — read or write: segment files are only removed under
// the write lock.
func (s *Store) readFrame(loc entryLoc) ([]byte, error) {
	f, ok := s.segs[loc.seg]
	if !ok {
		return nil, fmt.Errorf("%w: segment %d vanished", phr.ErrStorage, loc.seg)
	}
	frame := make([]byte, frameHeaderLen+int(loc.n))
	if _, err := f.ReadAt(frame, loc.off-frameHeaderLen); err != nil {
		return nil, fmt.Errorf("%w: read: %w", phr.ErrStorage, err)
	}
	return frame, nil
}

// checkFrame verifies a frame read back from the log against its CRC.
func checkFrame(frame []byte) error {
	if crc32.ChecksumIEEE(frame[frameHeaderLen:]) != binary.BigEndian.Uint32(frame[4:8]) {
		return fmt.Errorf("%w: %w: CRC mismatch reading a %d-byte entry", phr.ErrStorage, ErrCorrupt, len(frame)-frameHeaderLen)
	}
	return nil
}

// decodeRecord decodes a put or replace frame read back from the log. The
// store wrote it after the put's checks and its CRC verifies here, so the
// record decodes through the trusted path (phr.UnmarshalTrustedRecord): no
// curve or subgroup work, and the sealed ciphertext keeps the frame's
// bytes as its encoding.
func decodeRecord(frame []byte) (*phr.EncryptedRecord, error) {
	if err := checkFrame(frame); err != nil {
		return nil, err
	}
	rec, err := phr.UnmarshalTrustedRecord(frame[frameHeaderLen+1:])
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

// Put inserts a record; ErrDuplicate if the ID exists. The entry is
// encoded into its frame's buffer before the lock is taken: a ciphertext
// decoded from an upload is copied in as its bytes, encoding no point.
func (s *Store) Put(r *phr.EncryptedRecord) error {
	if r == nil || r.ID == "" {
		return fmt.Errorf("phr: invalid record")
	}
	frame := phr.MarshalRecord(newFrame(opPut, phr.RecordSize(r)), r)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("%w: store closed", phr.ErrStorage)
	}
	if _, ok := s.index[r.ID]; ok {
		return fmt.Errorf("%w: %s", phr.ErrDuplicate, r.ID)
	}
	seg, off, err := s.appendEntry(frame, s.opts.Fsync == FsyncAlways)
	if err != nil {
		return err
	}
	n := int32(len(frame) - frameHeaderLen)
	s.index[r.ID] = entryLoc{seg: seg, off: off, n: n, patient: r.PatientID, category: r.Category}
	s.records.Add(r.ID, r.PatientID, r.Category)
	s.liveBytes += int64(n)
	return nil
}

// Replace swaps the sealed body of an existing record; the routing
// metadata must not change.
func (s *Store) Replace(r *phr.EncryptedRecord) error {
	if r == nil || r.ID == "" {
		return fmt.Errorf("phr: invalid record")
	}
	frame := phr.MarshalRecord(newFrame(opReplace, phr.RecordSize(r)), r)
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
	seg, off, err := s.appendEntry(frame, s.opts.Fsync == FsyncAlways)
	if err != nil {
		return err
	}
	n := int32(len(frame) - frameHeaderLen)
	s.index[r.ID] = entryLoc{seg: seg, off: off, n: n, patient: old.patient, category: old.category}
	s.garbageBytes += int64(old.n)
	s.liveBytes += int64(n) - int64(old.n)
	return nil
}

// Get fetches a record by ID. Its frame is read under the read lock and
// checked and decoded after it, so a writer waits for one read only.
func (s *Store) Get(id string) (*phr.EncryptedRecord, error) {
	s.mu.RLock()
	frame, err := s.readRecord(id)
	s.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	return decodeRecord(frame)
}

// readRecord reads the frame of a live record.
//
// phrlint:locked mu — the caller holds (at least) the read lock.
func (s *Store) readRecord(id string) ([]byte, error) {
	if s.closed {
		return nil, fmt.Errorf("%w: store closed", phr.ErrStorage)
	}
	loc, ok := s.index[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", phr.ErrNotFound, id)
	}
	return s.readFrame(loc)
}

// Route returns a record's patient and category from the index.
func (s *Store) Route(id string) (patientID string, c phr.Category, ok bool) {
	s.mu.RLock()
	loc, ok := s.index[id]
	s.mu.RUnlock()
	return loc.patient, loc.category, ok
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
	frame := append(newFrame(opDelete, len(id)), id...)
	if _, _, err := s.appendEntry(frame, s.opts.Fsync == FsyncAlways); err != nil {
		return err
	}
	s.dropFromIndex(id, loc)
	return nil
}

// readFrames reads the frames of live records.
//
// phrlint:locked mu — the caller holds (at least) the read lock.
func (s *Store) readFrames(ids []string) ([][]byte, error) {
	if s.closed {
		return nil, fmt.Errorf("%w: store closed", phr.ErrStorage)
	}
	frames := make([][]byte, len(ids))
	for i, id := range ids {
		var err error
		if frames[i], err = s.readFrame(s.index[id]); err != nil {
			return nil, err
		}
	}
	return frames, nil
}

// decodeRecords decodes the frames readFrames read, outside the lock.
func decodeRecords(frames [][]byte, err error) ([]*phr.EncryptedRecord, error) {
	if err != nil {
		return nil, err
	}
	out := make([]*phr.EncryptedRecord, len(frames))
	for i, frame := range frames {
		if out[i], err = decodeRecord(frame); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ListByPatient returns all records of a patient in insertion order. The
// frames are read under the read lock and decoded after it.
func (s *Store) ListByPatient(patientID string) ([]*phr.EncryptedRecord, error) {
	s.mu.RLock()
	frames, err := s.readFrames(s.records.IDs(patientID))
	s.mu.RUnlock()
	return decodeRecords(frames, err)
}

// ListByPatientCategory returns a patient's records of one category in
// insertion order, read as ListByPatient reads them.
func (s *Store) ListByPatientCategory(patientID string, c phr.Category) ([]*phr.EncryptedRecord, error) {
	s.mu.RLock()
	frames, err := s.readFrames(s.records.IDsIn(patientID, c))
	s.mu.RUnlock()
	return decodeRecords(frames, err)
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

// closeFiles closes every segment file.
//
// phrlint:locked mu
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
