package persist

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"localadvice/internal/bitstr"
	"localadvice/internal/eth"
	"localadvice/internal/local"
	"localadvice/internal/obs"
)

func TestRecordRoundTrip(t *testing.T) {
	cases := []struct {
		key     string
		kind    Kind
		payload []byte
	}{
		{"table:abc:mis@radius=0:def", KindTable, []byte("payload with spaces\nand newlines\x00and NULs")},
		{"advice:xyz", KindAdvice, nil},
		{"", KindAdvice, []byte{}},
		{"k", Kind(200), bytes.Repeat([]byte{0xff}, 1<<16)},
	}
	for _, c := range cases {
		rec := EncodeRecord(c.key, c.kind, c.payload)
		key, kind, payload, err := DecodeRecord(rec)
		if err != nil {
			t.Fatalf("decode %q: %v", c.key, err)
		}
		if key != c.key || kind != c.kind || !bytes.Equal(payload, c.payload) {
			t.Errorf("round trip %q: got (%q, %v, %d bytes)", c.key, key, kind, len(payload))
		}
	}
}

func TestRecordCorruptionRejected(t *testing.T) {
	rec := EncodeRecord("some:key", KindTable, []byte("some payload bytes"))
	// Flipping any single byte must be detected (magic, version, lengths,
	// key, payload, or the CRC itself).
	for i := range rec {
		bad := append([]byte(nil), rec...)
		bad[i] ^= 0x01
		if _, _, _, err := DecodeRecord(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("byte %d flipped: err = %v, want ErrCorrupt", i, err)
		}
	}
	// Truncation at every length.
	for n := 0; n < len(rec); n++ {
		if _, _, _, err := DecodeRecord(rec[:n]); !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncated to %d bytes: err = %v, want ErrCorrupt", n, err)
		}
	}
	// Trailing garbage.
	if _, _, _, err := DecodeRecord(append(append([]byte(nil), rec...), 0)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing byte: err = %v, want ErrCorrupt", err)
	}
}

func TestStorePutGet(t *testing.T) {
	m := &obs.StoreMetrics{}
	s, err := Open(t.TempDir(), m)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok, err := s.Get("missing"); ok || err != nil {
		t.Fatalf("Get(missing) = ok %v, err %v", ok, err)
	}
	if err := s.Put("k1", KindAdvice, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	payload, kind, ok, err := s.Get("k1")
	if err != nil || !ok || kind != KindAdvice || string(payload) != "v1" {
		t.Fatalf("Get(k1) = (%q, %v, %v, %v)", payload, kind, ok, err)
	}
	// Overwrite.
	if err := s.Put("k1", KindTable, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	payload, kind, _, _ = s.Get("k1")
	if kind != KindTable || string(payload) != "v2" {
		t.Fatalf("after overwrite: (%q, %v)", payload, kind)
	}
	snap := m.Snapshot()
	if snap.Hits != 2 || snap.Misses != 1 || snap.Puts != 2 {
		t.Errorf("metrics = %+v, want 2 hits, 1 miss, 2 puts", snap)
	}
}

// TestStoreCorruptFileIsMiss pins the self-healing contract: a damaged
// record surfaces as ErrCorrupt (never a panic, never stale data), and a
// subsequent Put replaces it cleanly.
func TestStoreCorruptFileIsMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", KindAdvice, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	// Damage the record on disk.
	path := s.path("k")
	b, _ := os.ReadFile(path)
	b[len(b)/2] ^= 0xff
	os.WriteFile(path, b, 0o644)

	if _, _, ok, err := s.Get("k"); ok || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get on corrupt record = ok %v, err %v, want ErrCorrupt", ok, err)
	}
	if err := s.Put("k", KindAdvice, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	payload, _, ok, err := s.Get("k")
	if err != nil || !ok || string(payload) != "fresh" {
		t.Fatalf("after self-heal: (%q, %v, %v)", payload, ok, err)
	}
}

// TestStoreKeySwapDetected pins the filename<->key binding: renaming one
// record's file onto another key's filename is corruption, not a wrong
// answer.
func TestStoreKeySwapDetected(t *testing.T) {
	s, err := Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", KindAdvice, []byte("A")); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(s.path("a"), s.path("b")); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, err := s.Get("b"); ok || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get on swapped record = ok %v, err %v, want ErrCorrupt", ok, err)
	}
}

func TestStoreListVerifyGC(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{7}, 100)
	for _, k := range []string{"old", "mid", "new"} {
		if err := s.Put(k, KindTable, payload); err != nil {
			t.Fatal(err)
		}
		// Distinct mtimes so the eviction order is deterministic.
		now := time.Now()
		offset := map[string]time.Duration{"old": -2 * time.Hour, "mid": -time.Hour, "new": 0}[k]
		if err := os.Chtimes(s.path(k), now.Add(offset), now.Add(offset)); err != nil {
			t.Fatal(err)
		}
	}
	// A foreign file must be ignored, a corrupt record reported.
	os.WriteFile(filepath.Join(dir, "README.txt"), []byte("not a record"), 0o644)
	os.WriteFile(filepath.Join(dir, "junk.rec"), []byte("garbage"), 0o644)

	recs, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("List returned %d records, want 4 (3 valid + 1 corrupt)", len(recs))
	}
	total, corrupt, err := s.Verify()
	if err != nil || total != 4 || len(corrupt) != 1 || corrupt[0].File != "junk.rec" {
		t.Fatalf("Verify = (%d, %v, %v), want 4 records with junk.rec corrupt", total, corrupt, err)
	}

	// GC removes the corrupt record and evicts oldest-first to the budget.
	recSize := int64(len(EncodeRecord("old", KindTable, payload)))
	removed, _, err := s.GC(2 * recSize)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 { // junk.rec + "old"
		t.Errorf("GC removed %d, want 2", removed)
	}
	if _, _, ok, _ := s.Get("old"); ok {
		t.Error("oldest record survived GC")
	}
	for _, k := range []string{"mid", "new"} {
		if _, _, ok, err := s.Get(k); !ok || err != nil {
			t.Errorf("record %q evicted or corrupt after GC: ok %v err %v", k, ok, err)
		}
	}
}

func TestAdviceCodecRoundTrip(t *testing.T) {
	cases := []local.Advice{
		nil,
		{},
		{bitstr.String{}},
		{bitstr.New(1), bitstr.New(0), bitstr.String{}},
		{bitstr.MustParse("110110111"), bitstr.MustParse("0"), bitstr.MustParse("1111111100000001")},
	}
	for i, a := range cases {
		got, err := DecodeAdvice(EncodeAdvice(a))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if len(got) != len(a) {
			t.Fatalf("case %d: %d nodes, want %d", i, len(got), len(a))
		}
		for v := range a {
			if !got[v].Equal(a[v]) {
				t.Errorf("case %d node %d: %s != %s", i, v, got[v], a[v])
			}
		}
	}
}

func TestAdviceCodecRejectsDamage(t *testing.T) {
	b := EncodeAdvice(local.Advice{bitstr.MustParse("101"), bitstr.MustParse("11110000111")})
	for n := 0; n < len(b); n++ {
		if _, err := DecodeAdvice(b[:n]); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}
	if _, err := DecodeAdvice(append(append([]byte(nil), b...), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
}

// TestTablePersistRoundTrip drives the full store path a served table takes:
// compile -> binary encode -> record framing -> disk -> load, asserting the
// loaded table is semantically identical and re-encodes bit-identically.
func TestTablePersistRoundTrip(t *testing.T) {
	table := &eth.Table{Radius: 2, Entries: map[string]any{
		"n=3;center=0;e0,1;e1,2;v0:1:2:0;": 1,
		"n=3;center=1;e0,1;e1,2;v0:0:2:1;": 2,
		"key with spaces and\nnewlines":    -7,
	}}
	enc, dec := eth.IntBinaryCodec()
	var buf bytes.Buffer
	if err := table.SaveBinary(&buf, enc); err != nil {
		t.Fatal(err)
	}
	s, err := Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("table:k", KindTable, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	payload, kind, ok, err := s.Get("table:k")
	if err != nil || !ok || kind != KindTable {
		t.Fatalf("Get = (%v, %v, %v)", kind, ok, err)
	}
	got, err := eth.LoadTableBinary(bytes.NewReader(payload), dec)
	if err != nil {
		t.Fatal(err)
	}
	if got.Radius != table.Radius || len(got.Entries) != len(table.Entries) {
		t.Fatalf("loaded table shape (r=%d, %d entries) differs", got.Radius, len(got.Entries))
	}
	for k, v := range table.Entries {
		if got.Entries[k] != v {
			t.Errorf("entry %q: %v != %v", k, got.Entries[k], v)
		}
	}
	var again bytes.Buffer
	if err := got.SaveBinary(&again, enc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("re-encoding the loaded table is not bit-identical")
	}
}
