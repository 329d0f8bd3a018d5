// Package store is the disk tier of the recovery result cache: an
// append-only segmented record log with a keccak256-keyed in-memory index,
// pread (ReadAt) lookups, crc-checked records, torn-tail truncation on
// open, and size-triggered compaction.
//
// The on-disk layout is a directory of numbered segment files:
//
//	seg-00000001.log
//	seg-00000002.log
//	...
//
// Each segment starts with an 8-byte magic + 4-byte version header and
// then holds back-to-back records:
//
//	key[32] | flags[1] | payloadLen uint32 LE | crc32 uint32 LE | payload
//
// The crc (IEEE) covers key, flags, payloadLen, and payload, so any header
// or body corruption is detected, never served. A key appearing in more
// than one record resolves to the latest occurrence in segment/offset
// order, which makes overwrites and crash-interrupted compaction (old and
// new copies both on disk) safe: replay order picks the newest copy and
// compaction garbage is just dead bytes.
//
// Crash safety on open: the final segment may end in a torn record from a
// crashed writer — the tail after the last complete, crc-valid record is
// truncated away. A crc-mismatching record in the interior is skipped
// (counted in Stats.CorruptSkipped) when its length field still lands on a
// plausible record boundary; otherwise the remainder of that segment is
// treated as torn.
//
// Writes are buffered through the OS page cache without per-record fsync:
// the store is a cache, so losing the last few appends on power failure
// costs recomputation, not correctness.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"sigrec/internal/core"
)

const (
	magic         = "SIGRECS1"
	headerLen     = len(magic) + 4 // magic + version
	version       = 1
	recHeaderLen  = 32 + 1 + 4 + 4 // key + flags + payloadLen + crc
	maxPayloadLen = 16 << 20       // sanity bound: no record payload exceeds 16 MiB

	// flagErrNoFunctions marks a cached ErrNoFunctions outcome (the only
	// error the cacheability policy persists).
	flagErrNoFunctions = 1 << 0
)

// Options tunes segment rotation and compaction.
type Options struct {
	// MaxSegmentBytes rotates the active segment once it grows past this
	// size. <= 0 selects 8 MiB.
	MaxSegmentBytes int64
	// CompactMinDeadBytes arms compaction only once at least this many
	// dead (overwritten or skipped) bytes have accumulated. <= 0 selects
	// 1 MiB.
	CompactMinDeadBytes int64
}

func (o Options) withDefaults() Options {
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = 8 << 20
	}
	if o.CompactMinDeadBytes <= 0 {
		o.CompactMinDeadBytes = 1 << 20
	}
	return o
}

// Stats is a point-in-time view of the store's health counters.
type Stats struct {
	// Records is the number of live (indexed) keys.
	Records int
	// Segments is the number of on-disk segment files.
	Segments int
	// LiveBytes / DeadBytes partition the on-disk record bytes into
	// reachable-from-index and garbage.
	LiveBytes int64
	DeadBytes int64
	// CorruptSkipped counts crc-mismatching records skipped during opens.
	CorruptSkipped uint64
	// TornTruncated counts torn tails truncated away during opens.
	TornTruncated uint64
	// Compactions counts completed compaction passes.
	Compactions uint64
}

// recLoc locates one live record: which segment, the offset of the record
// header, and the full record length.
type recLoc struct {
	seg    uint64
	off    int64
	length int64
	flags  byte
}

// segment is one open segment file.
type segment struct {
	id   uint64
	f    *os.File
	size int64
}

// Store is the disk-backed result store. All methods are safe for
// concurrent use. Store implements core.ResultStore.
type Store struct {
	dir  string
	opts Options

	mu       sync.RWMutex
	segments map[uint64]*segment
	active   *segment // highest-numbered segment; appends go here
	index    map[[32]byte]recLoc
	live     int64
	dead     int64

	corruptSkipped uint64
	tornTruncated  uint64
	compactions    uint64
}

var _ core.ResultStore = (*Store)(nil)

// Open opens (creating if needed) the store rooted at dir, replaying every
// segment to rebuild the index, truncating any torn tail, and skipping
// crc-corrupt records.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:      dir,
		opts:     opts,
		segments: make(map[uint64]*segment),
		index:    make(map[[32]byte]recLoc),
	}
	ids, err := segmentIDs(dir)
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		if err := s.openSegment(id); err != nil {
			s.Close()
			return nil, err
		}
	}
	if s.active == nil {
		if err := s.newSegment(1); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// segmentIDs lists the segment numbers present in dir, ascending.
func segmentIDs(dir string) ([]uint64, error) {
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		return nil, err
	}
	var ids []uint64
	for _, n := range names {
		var id uint64
		if _, err := fmt.Sscanf(filepath.Base(n), "seg-%08d.log", &id); err == nil && id > 0 {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

func segmentPath(dir string, id uint64) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%08d.log", id))
}

// newSegment creates and activates an empty segment with the given id.
// Caller holds mu (or is single-threaded during Open).
func (s *Store) newSegment(id uint64) error {
	f, err := os.OpenFile(segmentPath(s.dir, id), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var hdr [headerLen]byte
	copy(hdr[:], magic)
	binary.LittleEndian.PutUint32(hdr[len(magic):], version)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	seg := &segment{id: id, f: f, size: int64(headerLen)}
	s.segments[id] = seg
	s.active = seg
	return nil
}

// openSegment opens an existing segment, replays its records into the
// index, and truncates a torn tail. Single-threaded (Open only).
func (s *Store) openSegment(id uint64) error {
	f, err := os.OpenFile(segmentPath(s.dir, id), os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	seg := &segment{id: id, f: f}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	size := fi.Size()
	var hdr [headerLen]byte
	if n, err := f.ReadAt(hdr[:], 0); n < headerLen || string(hdr[:len(magic)]) != magic ||
		binary.LittleEndian.Uint32(hdr[len(magic):]) != version {
		// A segment too short for its header, or with a foreign header, is
		// unusable in full: treat everything as torn and reinitialize it.
		_ = err
		s.tornTruncated++
		if terr := s.reinitSegment(f); terr != nil {
			f.Close()
			return terr
		}
		seg.size = int64(headerLen)
		s.segments[id] = seg
		s.active = seg
		return nil
	}
	good := int64(headerLen) // end of the last complete, valid record
	off := int64(headerLen)
	var rh [recHeaderLen]byte
	for off+int64(recHeaderLen) <= size {
		if _, err := f.ReadAt(rh[:], off); err != nil {
			break
		}
		payloadLen := int64(binary.LittleEndian.Uint32(rh[33:37]))
		wantCRC := binary.LittleEndian.Uint32(rh[37:41])
		recLen := int64(recHeaderLen) + payloadLen
		if payloadLen > maxPayloadLen || off+recLen > size {
			// Length field implausible or record runs past EOF: torn tail.
			break
		}
		payload := make([]byte, payloadLen)
		if _, err := f.ReadAt(payload, off+int64(recHeaderLen)); err != nil {
			break
		}
		if recordCRC(rh[:37], payload) != wantCRC {
			// Interior corruption with a plausible length: skip just this
			// record and keep replaying from the next boundary.
			s.corruptSkipped++
			s.dead += recLen
			off += recLen
			good = off
			continue
		}
		var key [32]byte
		copy(key[:], rh[:32])
		loc := recLoc{seg: id, off: off, length: recLen, flags: rh[32]}
		if prev, ok := s.index[key]; ok {
			s.dead += prev.length
			s.live -= prev.length
		}
		s.index[key] = loc
		s.live += recLen
		off += recLen
		good = off
	}
	if good < size {
		s.tornTruncated++
		if err := f.Truncate(good); err != nil {
			f.Close()
			return fmt.Errorf("store: truncate torn tail: %w", err)
		}
	}
	seg.size = good
	s.segments[id] = seg
	s.active = seg
	return nil
}

// reinitSegment rewrites a segment file down to a bare valid header.
func (s *Store) reinitSegment(f *os.File) error {
	if err := f.Truncate(0); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var hdr [headerLen]byte
	copy(hdr[:], magic)
	binary.LittleEndian.PutUint32(hdr[len(magic):], version)
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// recordCRC covers the record header through payloadLen plus the payload,
// so corruption anywhere in the record is detected.
func recordCRC(headerPrefix, payload []byte) uint32 {
	c := crc32.ChecksumIEEE(headerPrefix)
	return crc32.Update(c, crc32.IEEETable, payload)
}

// Load returns the stored outcome for a key. The bool reports presence;
// the inner error is the persisted recovery error (nil or
// core.ErrNoFunctions), mirroring the memory cache's (Result, error)
// entries.
func (s *Store) Load(key [32]byte) (core.Result, error, bool) {
	s.mu.RLock()
	loc, ok := s.index[key]
	var seg *segment
	if ok {
		seg = s.segments[loc.seg]
	}
	s.mu.RUnlock()
	if !ok || seg == nil {
		return core.Result{}, nil, false
	}
	buf := make([]byte, loc.length)
	if _, err := seg.f.ReadAt(buf, loc.off); err != nil {
		return core.Result{}, nil, false
	}
	// Re-verify the crc on every read: the index was built at open time
	// and the file may have been damaged since.
	wantCRC := binary.LittleEndian.Uint32(buf[37:41])
	if recordCRC(buf[:37], buf[recHeaderLen:]) != wantCRC {
		return core.Result{}, nil, false
	}
	res, err := DecodeResult(buf[recHeaderLen:])
	if err != nil {
		return core.Result{}, nil, false
	}
	var rerr error
	if buf[32]&flagErrNoFunctions != 0 {
		rerr = core.ErrNoFunctions
	}
	return res, rerr, true
}

// Save appends an outcome for key, replacing any prior record for the same
// key in the index (the old bytes become dead and are reclaimed by
// compaction). Only nil and core.ErrNoFunctions outcomes are accepted,
// matching the memory cache's cacheability policy.
func (s *Store) Save(key [32]byte, res core.Result, rerr error) error {
	var flags byte
	switch {
	case rerr == nil:
	case errors.Is(rerr, core.ErrNoFunctions):
		flags |= flagErrNoFunctions
	default:
		return fmt.Errorf("store: outcome with error %q is not persistable", rerr)
	}
	payload, err := EncodeResult(res)
	if err != nil {
		return err
	}
	if len(payload) > maxPayloadLen {
		return fmt.Errorf("store: payload %d bytes exceeds limit", len(payload))
	}
	rec := make([]byte, recHeaderLen+len(payload))
	copy(rec[:32], key[:])
	rec[32] = flags
	binary.LittleEndian.PutUint32(rec[33:37], uint32(len(payload)))
	copy(rec[recHeaderLen:], payload)
	binary.LittleEndian.PutUint32(rec[37:41], recordCRC(rec[:37], payload))

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active.size >= s.opts.MaxSegmentBytes {
		if err := s.newSegment(s.active.id + 1); err != nil {
			return err
		}
	}
	seg := s.active
	off := seg.size
	if _, err := seg.f.WriteAt(rec, off); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	seg.size += int64(len(rec))
	if prev, ok := s.index[key]; ok {
		s.dead += prev.length
		s.live -= prev.length
	}
	s.index[key] = recLoc{seg: seg.id, off: off, length: int64(len(rec)), flags: flags}
	s.live += int64(len(rec))
	if s.dead >= s.opts.CompactMinDeadBytes && s.dead > s.live {
		return s.compactLocked()
	}
	return nil
}

// compactLocked rewrites every live record into a fresh segment and
// deletes the old ones. Crash-safe without temp files: the new segment has
// a higher number than every old one, and replay resolves duplicate keys
// to the latest segment/offset — a crash after the new segment is written
// but before the old ones are unlinked only leaves dead bytes behind.
func (s *Store) compactLocked() error {
	oldIDs := make([]uint64, 0, len(s.segments))
	for id := range s.segments {
		oldIDs = append(oldIDs, id)
	}
	if err := s.newSegment(s.active.id + 1); err != nil {
		return err
	}
	dst := s.active
	// Copy live records in deterministic (segment, offset) order.
	type kv struct {
		key [32]byte
		loc recLoc
	}
	lives := make([]kv, 0, len(s.index))
	for k, loc := range s.index {
		lives = append(lives, kv{k, loc})
	}
	sort.Slice(lives, func(i, j int) bool {
		if lives[i].loc.seg != lives[j].loc.seg {
			return lives[i].loc.seg < lives[j].loc.seg
		}
		return lives[i].loc.off < lives[j].loc.off
	})
	for _, e := range lives {
		src := s.segments[e.loc.seg]
		buf := make([]byte, e.loc.length)
		if _, err := src.f.ReadAt(buf, e.loc.off); err != nil {
			return fmt.Errorf("store: compact read: %w", err)
		}
		off := dst.size
		if _, err := dst.f.WriteAt(buf, off); err != nil {
			return fmt.Errorf("store: compact write: %w", err)
		}
		dst.size += e.loc.length
		s.index[e.key] = recLoc{seg: dst.id, off: off, length: e.loc.length, flags: e.loc.flags}
	}
	// The compacted segment must be durable before the sources disappear.
	if err := dst.f.Sync(); err != nil {
		return fmt.Errorf("store: compact sync: %w", err)
	}
	for _, id := range oldIDs {
		seg := s.segments[id]
		seg.f.Close()
		if err := os.Remove(segmentPath(s.dir, id)); err != nil {
			return fmt.Errorf("store: compact unlink: %w", err)
		}
		delete(s.segments, id)
	}
	s.dead = 0
	s.compactions++
	return nil
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Stats returns the store's health counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		Records:        len(s.index),
		Segments:       len(s.segments),
		LiveBytes:      s.live,
		DeadBytes:      s.dead,
		CorruptSkipped: s.corruptSkipped,
		TornTruncated:  s.tornTruncated,
		Compactions:    s.compactions,
	}
}

// Sync flushes the active segment to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == nil {
		return nil
	}
	if err := s.active.f.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Keys calls fn for every live key until fn returns false. The snapshot is
// taken under the read lock; fn runs outside it.
func (s *Store) Keys(fn func(key [32]byte) bool) {
	s.mu.RLock()
	keys := make([][32]byte, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	s.mu.RUnlock()
	for _, k := range keys {
		if !fn(k) {
			return
		}
	}
}

// Close syncs and closes every segment. The store is unusable afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var firstErr error
	for _, seg := range s.segments {
		if err := seg.f.Sync(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := seg.f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.segments = map[uint64]*segment{}
	s.active = nil
	if firstErr != nil {
		return fmt.Errorf("store: close: %w", firstErr)
	}
	return nil
}
