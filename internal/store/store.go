// Package store is the persistent result store of the serving tier: an
// append-only log of (content-address key → response body) records that
// backs the in-memory LRU, so cached evidence survives process restarts.
//
// Layout. A store directory holds numbered segment files
// (00000001.seg, 00000002.seg, …). Records are appended to the highest
// segment until it reaches MaxSegmentBytes, then a fresh segment is
// started. Each record is framed as
//
//	magic   uint32  "ADSR" (0x41445352), little-endian
//	keyLen  uint32
//	bodyLen uint32
//	key     keyLen bytes
//	body    bodyLen bytes
//	crc     uint32  CRC-32C (Castagnoli) over magic..body
//
// so a reader can verify every byte it trusts. Keys are the service's
// canonical-request SHA-256 addresses; a re-put of an existing key
// appends a fresh record and repoints the index (the old record becomes
// garbage that leaves with its segment).
//
// Durability and recovery. Writes are appended and (by default) fsynced
// per put; Open replays every segment to rebuild the in-memory index.
// A torn tail — a record cut short by a crash, or one whose CRC does
// not match — ends the replay of its segment: in the final segment the
// tail is truncated so the file ends on the last committed record, in
// earlier segments the remainder is ignored. Committed records are
// never lost to a crash mid-append.
//
// Capacity. The store is a cache, not a ledger: when the directory
// exceeds MaxBytes the oldest whole segments are deleted (dropping any
// index entries still pointing into them) until the cap holds. Byte
// accounting mirrors the in-memory LRU: each record is charged its
// on-disk frame size, so a cap of N bytes bounds real disk usage by N
// plus at most one segment of slack.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"adassure/internal/obs"
)

// recordMagic opens every committed record frame ("ADSR" little-endian).
const recordMagic = 0x41445352

// headerSize is the fixed frame prefix: magic + keyLen + bodyLen.
const headerSize = 12

// crcSize trails every record.
const crcSize = 4

// castagnoli is the CRC-32C table shared by writer and reader.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// ErrTooLarge is returned by Put when one record alone would exceed the
// byte cap (storing it would immediately evict everything else and then
// itself be the next victim).
var ErrTooLarge = errors.New("store: record exceeds byte cap")

// CorruptError reports a record that failed its CRC or frame check on
// read — evidence of disk damage after the record was committed (torn
// tails found during Open are recovered silently, not reported).
type CorruptError struct {
	Segment string
	Offset  int64
	Reason  string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("store: corrupt record in %s at offset %d: %s", e.Segment, e.Offset, e.Reason)
}

// Options tunes a Store.
type Options struct {
	// MaxBytes caps the total on-disk size (default 256 MiB). When an
	// append pushes the total over the cap, whole oldest segments are
	// deleted until it holds again.
	MaxBytes int64
	// MaxSegmentBytes bounds one segment file (default 8 MiB). Smaller
	// segments evict in finer increments at the cost of more files.
	MaxSegmentBytes int64
	// NoSync skips the per-put fsync. Faster, but a crash can lose the
	// most recent puts (never corrupt the store: recovery still truncates
	// to the last complete record that reached the disk).
	NoSync bool
	// Obs, when non-nil, receives store.hits / store.misses / store.puts /
	// store.evicted_segments counters and the store.bytes / store.segments /
	// store.entries gauges.
	Obs *obs.Registry
}

func (o *Options) defaults() {
	if o.MaxBytes <= 0 {
		o.MaxBytes = 256 << 20
	}
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = 8 << 20
	}
	if o.MaxSegmentBytes > o.MaxBytes {
		o.MaxSegmentBytes = o.MaxBytes
	}
}

// segment is one on-disk log file plus its read handle.
type segment struct {
	id   uint64
	path string
	f    *os.File
	size int64
}

// entry locates one live record inside a segment.
type entry struct {
	seg    *segment
	offset int64
	length int64 // whole frame: header + key + body + crc
}

// Store is the persistent result store. All methods are safe for
// concurrent use.
type Store struct {
	dir  string
	opts Options

	mu       sync.Mutex
	segments []*segment // ascending id; last is the active append target
	index    map[string]*entry
	bytes    int64 // sum of segment sizes
	closed   bool

	hits       *obs.Counter
	misses     *obs.Counter
	puts       *obs.Counter
	evictions  *obs.Counter
	recovered  *obs.Counter
	bytesGau   *obs.Gauge
	segGau     *obs.Gauge
	entriesGau *obs.Gauge
}

// Open opens (creating if needed) the store rooted at dir, replaying
// every segment to rebuild the index and truncating a torn tail left by
// a crash mid-append.
func Open(dir string, opts Options) (*Store, error) {
	opts.defaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	s := &Store{
		dir:   dir,
		opts:  opts,
		index: map[string]*entry{},

		hits:       opts.Obs.Counter("store.hits"),
		misses:     opts.Obs.Counter("store.misses"),
		puts:       opts.Obs.Counter("store.puts"),
		evictions:  opts.Obs.Counter("store.evicted_segments"),
		recovered:  opts.Obs.Counter("store.recovered_tails"),
		bytesGau:   opts.Obs.Gauge("store.bytes"),
		segGau:     opts.Obs.Gauge("store.segments"),
		entriesGau: opts.Obs.Gauge("store.entries"),
	}
	if err := s.load(); err != nil {
		s.closeSegments()
		return nil, err
	}
	s.publishGauges()
	return s, nil
}

// segmentPath names segment id inside the store directory.
func (s *Store) segmentPath(id uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%08d.seg", id))
}

// load scans the directory, replays each segment in id order and leaves
// the highest segment open for appending.
func (s *Store) load() error {
	names, err := filepath.Glob(filepath.Join(s.dir, "*.seg"))
	if err != nil {
		return fmt.Errorf("store: scan dir: %w", err)
	}
	sort.Strings(names)
	var ids []uint64
	for _, name := range names {
		var id uint64
		if _, err := fmt.Sscanf(filepath.Base(name), "%d.seg", &id); err != nil {
			continue // not ours; leave foreign files alone
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for i, id := range ids {
		final := i == len(ids)-1
		if err := s.replaySegment(id, final); err != nil {
			return err
		}
	}
	if len(s.segments) == 0 {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	return nil
}

// replaySegment opens one segment, walks its records into the index and
// — when it is the final (append-target) segment — truncates any torn
// tail so appends resume on a committed boundary.
func (s *Store) replaySegment(id uint64, final bool) error {
	path := s.segmentPath(id)
	flags := os.O_RDONLY
	if final {
		flags = os.O_RDWR
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return fmt.Errorf("store: open segment: %w", err)
	}
	seg := &segment{id: id, path: path, f: f}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return fmt.Errorf("store: read segment %s: %w", path, err)
	}
	valid := int64(0)
	for {
		key, frameLen, ok := parseRecord(data[valid:])
		if !ok {
			break
		}
		s.index[key] = &entry{seg: seg, offset: valid, length: frameLen}
		valid += frameLen
	}
	if int64(len(data)) != valid {
		// Torn or corrupt tail. Only the final segment may legitimately
		// carry one (a crash mid-append); truncating it there restores the
		// append invariant. Earlier segments are immutable — ignore the
		// damaged remainder but keep the committed prefix serving.
		if final {
			if err := f.Truncate(valid); err != nil {
				f.Close()
				return fmt.Errorf("store: truncate torn tail of %s: %w", path, err)
			}
		}
		s.recovered.Inc()
	}
	seg.size = valid
	if final {
		if _, err := f.Seek(valid, io.SeekStart); err != nil {
			f.Close()
			return fmt.Errorf("store: seek segment %s: %w", path, err)
		}
	}
	s.segments = append(s.segments, seg)
	s.bytes += seg.size
	return nil
}

// parseRecord reads one record frame from the head of data, returning
// its key and total frame length. ok is false for an empty, truncated
// or CRC-damaged head.
func parseRecord(data []byte) (key string, frameLen int64, ok bool) {
	if len(data) < headerSize {
		return "", 0, false
	}
	if binary.LittleEndian.Uint32(data[0:4]) != recordMagic {
		return "", 0, false
	}
	keyLen := int64(binary.LittleEndian.Uint32(data[4:8]))
	bodyLen := int64(binary.LittleEndian.Uint32(data[8:12]))
	frameLen = headerSize + keyLen + bodyLen + crcSize
	if frameLen > int64(len(data)) {
		return "", 0, false
	}
	payloadEnd := headerSize + keyLen + bodyLen
	want := binary.LittleEndian.Uint32(data[payloadEnd : payloadEnd+crcSize])
	if crc32.Checksum(data[:payloadEnd], castagnoli) != want {
		return "", 0, false
	}
	return string(data[headerSize : headerSize+keyLen]), frameLen, true
}

// appendFrame renders the on-disk frame for one record.
func appendFrame(key string, body []byte) []byte {
	frame := make([]byte, headerSize+len(key)+len(body)+crcSize)
	binary.LittleEndian.PutUint32(frame[0:4], recordMagic)
	binary.LittleEndian.PutUint32(frame[4:8], uint32(len(key)))
	binary.LittleEndian.PutUint32(frame[8:12], uint32(len(body)))
	copy(frame[headerSize:], key)
	copy(frame[headerSize+len(key):], body)
	payloadEnd := headerSize + len(key) + len(body)
	crc := crc32.Checksum(frame[:payloadEnd], castagnoli)
	binary.LittleEndian.PutUint32(frame[payloadEnd:], crc)
	return frame
}

// rotateLocked starts a fresh segment after the current highest id.
// Caller holds mu (or is inside Open before the store is shared).
func (s *Store) rotateLocked() error {
	var next uint64 = 1
	if n := len(s.segments); n > 0 {
		next = s.segments[n-1].id + 1
	}
	path := s.segmentPath(next)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: create segment: %w", err)
	}
	s.segments = append(s.segments, &segment{id: next, path: path, f: f})
	return nil
}

// Put appends one record and repoints the index. The body is copied to
// disk; the caller keeps ownership of its slice.
func (s *Store) Put(key string, body []byte) error {
	frame := appendFrame(key, body)
	if int64(len(frame)) > s.opts.MaxBytes {
		return ErrTooLarge
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	active := s.segments[len(s.segments)-1]
	if active.size > 0 && active.size+int64(len(frame)) > s.opts.MaxSegmentBytes {
		if err := s.rotateLocked(); err != nil {
			return err
		}
		active = s.segments[len(s.segments)-1]
	}
	offset := active.size
	if _, err := active.f.Write(frame); err != nil {
		// The segment may now carry a torn tail; recovery on next Open
		// truncates it. Resync size with the file to stay consistent.
		if sz, serr := active.f.Seek(0, io.SeekEnd); serr == nil {
			s.bytes += sz - active.size
			active.size = sz
		}
		return fmt.Errorf("store: append: %w", err)
	}
	if !s.opts.NoSync {
		if err := active.f.Sync(); err != nil {
			return fmt.Errorf("store: sync: %w", err)
		}
	}
	active.size += int64(len(frame))
	s.bytes += int64(len(frame))
	s.index[key] = &entry{seg: active, offset: offset, length: int64(len(frame))}
	s.puts.Inc()
	s.evictLocked()
	s.publishGauges()
	return nil
}

// evictLocked deletes whole oldest segments until the byte cap holds.
// The active segment is never evicted (rotation bounds it by
// MaxSegmentBytes ≤ MaxBytes).
func (s *Store) evictLocked() {
	for s.bytes > s.opts.MaxBytes && len(s.segments) > 1 {
		victim := s.segments[0]
		s.segments = s.segments[1:]
		for key, e := range s.index {
			if e.seg == victim {
				delete(s.index, key)
			}
		}
		s.bytes -= victim.size
		victim.f.Close()
		os.Remove(victim.path)
		s.evictions.Inc()
	}
}

func (s *Store) publishGauges() {
	s.bytesGau.Set(float64(s.bytes))
	s.segGau.Set(float64(len(s.segments)))
	s.entriesGau.Set(float64(len(s.index)))
}

// Get returns the stored body for key, re-verifying the record's CRC on
// the way out. A missing key returns (nil, false, nil); a damaged
// record returns a *CorruptError (and drops the entry so later gets
// miss cleanly).
func (s *Store) Get(key string) ([]byte, bool, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, false, ErrClosed
	}
	e, ok := s.index[key]
	if !ok {
		s.misses.Inc()
		s.mu.Unlock()
		return nil, false, nil
	}
	frame := make([]byte, e.length)
	_, err := e.seg.f.ReadAt(frame, e.offset)
	if err != nil {
		delete(s.index, key)
		s.mu.Unlock()
		return nil, false, &CorruptError{Segment: e.seg.path, Offset: e.offset, Reason: err.Error()}
	}
	gotKey, frameLen, valid := parseRecord(frame)
	if !valid || frameLen != e.length || gotKey != key {
		delete(s.index, key)
		s.mu.Unlock()
		return nil, false, &CorruptError{Segment: e.seg.path, Offset: e.offset, Reason: "crc or frame mismatch"}
	}
	s.hits.Inc()
	s.mu.Unlock()
	body := frame[headerSize+len(key) : int64(len(frame))-crcSize]
	return body, true, nil
}

// Len reports the live (indexed) record count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// SizeBytes reports the total on-disk size across segments.
func (s *Store) SizeBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Dir reports the directory the store is rooted at.
func (s *Store) Dir() string { return s.dir }

// MaxBytes reports the total on-disk cap, defaults resolved.
func (s *Store) MaxBytes() int64 { return s.opts.MaxBytes }

func (s *Store) closeSegments() {
	for _, seg := range s.segments {
		if seg.f != nil {
			seg.f.Close()
		}
	}
}

// Close syncs the active segment and releases every file handle.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if n := len(s.segments); n > 0 && !s.opts.NoSync {
		err = s.segments[n-1].f.Sync()
	}
	s.closeSegments()
	return err
}
