// Package persist is the disk-backed artifact store of the serving layer:
// the layer *under* the internal/cache LRU that makes "decompress once,
// serve forever" literal. The expensive artifacts of the paper's pipeline —
// compiled eth.Tables (the finite lookup-table object a node consults in
// Section 8) and encoded advice — are written once to disk in a versioned,
// length-prefixed binary record format, so evictions and process restarts
// warm-start by loading flat bytes instead of re-running the engine.
//
// Layering (DESIGN.md §8): the LRU's singleflight compute closure consults
// the store first and falls back to the engine, writing the result back.
// Because both paths run inside the same singleflight call, a startup
// stampede of N identical requests performs at most one disk load or one
// engine compute per key — never both, never twice.
//
// On-disk layout: one file per record under the store directory, named
// sha256(key).rec, so keys of any shape and length map to safe filenames.
// Each file is a single self-describing record:
//
//	offset 0  magic  "LADS" (4 bytes)
//	       4  version uint16 (little-endian; currently 1)
//	       6  kind    uint8  (KindTable, KindAdvice, ...)
//	       7  zero    uint8  (reserved)
//	       8  keyLen  uint32
//	      12  payLen  uint32
//	      16  key bytes, then payload bytes
//	      __  crc32   uint32 (IEEE, over everything before it)
//
// Every field is length-prefixed and the whole record is covered by the
// CRC, so the format has no separator characters to escape and truncation,
// bit rot, or a foreign file are all rejected as ErrCorrupt rather than
// misparsed. Writes are atomic (temp file + rename), so a crash mid-write
// leaves either the old record or none.
//
// All Store methods are safe for concurrent use, including by multiple
// processes sharing a directory.
package persist

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"localadvice/internal/obs"
)

// Kind tags what a record's payload is, so tooling (locad store ls) can
// label records without knowing every key schema.
type Kind uint8

const (
	// KindTable marks a compiled eth.Table in its binary form.
	KindTable Kind = 1
	// KindAdvice marks an encoded advice assignment in its binary form.
	KindAdvice Kind = 2
)

// String names the kind for tooling output.
func (k Kind) String() string {
	switch k {
	case KindTable:
		return "table"
	case KindAdvice:
		return "advice"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ErrCorrupt is the typed rejection for any record that fails structural or
// CRC validation: wrong magic, unsupported version, truncated lengths,
// trailing garbage, checksum mismatch, or a key that does not match its
// filename. Callers treat a corrupt record as a miss and recompute.
var ErrCorrupt = errors.New("persist: corrupt record")

const (
	magic   = "LADS"
	version = 1
	// headerLen is the fixed prefix before key and payload bytes.
	headerLen = 16
	// crcLen is the trailing checksum.
	crcLen = 4
	// maxRecordLen bounds a single record (key + payload) to keep a corrupt
	// length field from driving a huge allocation.
	maxRecordLen = 1 << 30
)

// EncodeRecord frames a (key, kind, payload) triple as one on-disk record.
func EncodeRecord(key string, kind Kind, payload []byte) []byte {
	buf := make([]byte, 0, headerLen+len(key)+len(payload)+crcLen)
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint16(buf, version)
	buf = append(buf, byte(kind), 0)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, key...)
	buf = append(buf, payload...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf
}

// DecodeRecord parses and validates one record. It never panics, whatever
// the bytes: every structural defect is reported as (wrapped) ErrCorrupt.
func DecodeRecord(b []byte) (key string, kind Kind, payload []byte, err error) {
	if len(b) < headerLen+crcLen {
		return "", 0, nil, fmt.Errorf("%w: %d bytes is shorter than any record", ErrCorrupt, len(b))
	}
	if string(b[:4]) != magic {
		return "", 0, nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, b[:4])
	}
	if v := binary.LittleEndian.Uint16(b[4:6]); v != version {
		return "", 0, nil, fmt.Errorf("%w: version %d, want %d", ErrCorrupt, v, version)
	}
	kind = Kind(b[6])
	keyLen := int64(binary.LittleEndian.Uint32(b[8:12]))
	payLen := int64(binary.LittleEndian.Uint32(b[12:16]))
	if keyLen+payLen > maxRecordLen {
		return "", 0, nil, fmt.Errorf("%w: declared lengths %d+%d exceed the record bound", ErrCorrupt, keyLen, payLen)
	}
	total := headerLen + keyLen + payLen + crcLen
	if int64(len(b)) != total {
		return "", 0, nil, fmt.Errorf("%w: %d bytes, header declares %d", ErrCorrupt, len(b), total)
	}
	body := b[:total-crcLen]
	want := binary.LittleEndian.Uint32(b[total-crcLen:])
	if got := crc32.ChecksumIEEE(body); got != want {
		return "", 0, nil, fmt.Errorf("%w: CRC32 %08x, record claims %08x", ErrCorrupt, got, want)
	}
	key = string(b[headerLen : headerLen+keyLen])
	payload = b[headerLen+keyLen : headerLen+keyLen+payLen]
	return key, kind, payload, nil
}

// Store is a directory of records. Construct with Open; the zero value is
// not usable.
type Store struct {
	dir     string
	metrics *obs.StoreMetrics
	tmpSeq  atomic.Uint64
}

// Open creates (if needed) and returns a store rooted at dir. metrics may
// be nil.
func Open(dir string, metrics *obs.StoreMetrics) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("persist: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	return &Store{dir: dir, metrics: metrics}, nil
}

// recExt is the record filename suffix; foreign files are ignored.
const recExt = ".rec"

// path maps a key to its record file: hashing the key keeps arbitrary key
// strings (which embed digests, schema params, and colons) filesystem-safe.
func (s *Store) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, hex.EncodeToString(sum[:])+recExt)
}

// Put atomically writes (or replaces) the record for key.
func (s *Store) Put(key string, kind Kind, payload []byte) error {
	start := time.Now()
	rec := EncodeRecord(key, kind, payload)
	tmp := filepath.Join(s.dir, fmt.Sprintf(".tmp-%d-%d", os.Getpid(), s.tmpSeq.Add(1)))
	if err := os.WriteFile(tmp, rec, 0o644); err != nil {
		s.metrics.ObserveError()
		return fmt.Errorf("persist: %w", err)
	}
	if err := os.Rename(tmp, s.path(key)); err != nil {
		os.Remove(tmp)
		s.metrics.ObserveError()
		return fmt.Errorf("persist: %w", err)
	}
	s.metrics.ObservePut(time.Since(start), int64(len(payload)))
	return nil
}

// Get loads the record for key. ok is false on a clean miss (no record).
// A record that exists but fails validation returns ErrCorrupt (and counts
// as both an error and a miss in the metrics); callers are expected to
// fall through to recomputation, whose Put self-heals the record.
func (s *Store) Get(key string) (payload []byte, kind Kind, ok bool, err error) {
	start := time.Now()
	b, rerr := os.ReadFile(s.path(key))
	if rerr != nil {
		s.metrics.ObserveLoad(time.Since(start), 0, false)
		if errors.Is(rerr, fs.ErrNotExist) {
			return nil, 0, false, nil
		}
		s.metrics.ObserveError()
		return nil, 0, false, fmt.Errorf("persist: %w", rerr)
	}
	gotKey, kind, payload, derr := DecodeRecord(b)
	if derr == nil && gotKey != key {
		derr = fmt.Errorf("%w: record holds key %q, file is named for %q", ErrCorrupt, gotKey, key)
	}
	if derr != nil {
		s.metrics.ObserveLoad(time.Since(start), 0, false)
		s.metrics.ObserveError()
		return nil, 0, false, derr
	}
	s.metrics.ObserveLoad(time.Since(start), int64(len(payload)), true)
	return payload, kind, true, nil
}

// RecordInfo describes one on-disk record for tooling (locad store ls /
// verify / gc). Err is non-nil for corrupt records; Key and Kind are only
// meaningful when Err is nil.
type RecordInfo struct {
	File    string // base filename under the store directory
	Key     string
	Kind    Kind
	Size    int64 // whole file, framing included
	Payload int64 // payload bytes only
	ModTime time.Time
	Err     error
}

// List reads and fully validates every record, sorted oldest-first by
// modification time (the GC eviction order). Foreign files are skipped.
func (s *Store) List() ([]RecordInfo, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	var out []RecordInfo
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != recExt {
			continue
		}
		info := RecordInfo{File: e.Name()}
		if fi, err := e.Info(); err == nil {
			info.Size = fi.Size()
			info.ModTime = fi.ModTime()
		}
		b, err := os.ReadFile(filepath.Join(s.dir, e.Name()))
		if err != nil {
			info.Err = err
		} else {
			key, kind, payload, derr := DecodeRecord(b)
			info.Key, info.Kind, info.Payload, info.Err = key, kind, int64(len(payload)), derr
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ModTime.Before(out[j].ModTime) })
	return out, nil
}

// Verify validates every record and returns the corrupt ones.
func (s *Store) Verify() (total int, corrupt []RecordInfo, err error) {
	recs, err := s.List()
	if err != nil {
		return 0, nil, err
	}
	for _, r := range recs {
		if r.Err != nil {
			corrupt = append(corrupt, r)
		}
	}
	return len(recs), corrupt, nil
}

// GC deletes every corrupt record, then evicts valid records oldest-first
// until the remaining total size is at most maxBytes (a zero budget evicts
// every valid record). It returns what was removed and the bytes freed.
func (s *Store) GC(maxBytes int64) (removed int, freed int64, err error) {
	recs, err := s.List()
	if err != nil {
		return 0, 0, err
	}
	var total int64
	for _, r := range recs {
		if r.Err != nil {
			if rmErr := os.Remove(filepath.Join(s.dir, r.File)); rmErr == nil {
				removed++
				freed += r.Size
			}
			continue
		}
		total += r.Size
	}
	for _, r := range recs { // oldest-first from List
		if total <= maxBytes {
			break
		}
		if r.Err != nil {
			continue // already deleted above
		}
		if rmErr := os.Remove(filepath.Join(s.dir, r.File)); rmErr == nil {
			removed++
			freed += r.Size
			total -= r.Size
		}
	}
	return removed, freed, nil
}
