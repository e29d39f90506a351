package eth

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
)

// Binary table codec: the payload format of the persistent artifact store's
// KindTable records. Every field is length-prefixed, so any byte sequence is
// a valid key or output encoding.
//
// Layout (all integers little-endian):
//
//	magic   "ETB1" (4 bytes)
//	radius  uint32
//	count   uint32 (number of entries)
//	per entry, in sorted key order:
//	  keyLen uint32, key bytes
//	  outLen uint32, output bytes (caller codec)
//
// Sorted key order makes SaveBinary deterministic: encode -> decode ->
// encode reproduces the bytes bit-identically, which is what lets the
// persistence round-trip property tests compare raw files.

const (
	tableMagic = "ETB1"
	// maxTableField bounds one declared key/output length, and maxTableCount
	// the entry count, so corrupt input cannot drive huge allocations.
	maxTableField = 1 << 28
	maxTableCount = 1 << 26
)

// SaveBinary writes the table in the binary format, encoding outputs with
// the caller-provided codec (outputs are opaque to this package, exactly as
// in the text Save).
func (t *Table) SaveBinary(w io.Writer, encode func(any) ([]byte, error)) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(tableMagic); err != nil {
		return err
	}
	if t.Radius < 0 {
		return fmt.Errorf("eth: negative radius %d is not serializable", t.Radius)
	}
	var buf [4]byte
	writeU32 := func(v uint32) error {
		binary.LittleEndian.PutUint32(buf[:], v)
		_, err := bw.Write(buf[:])
		return err
	}
	if err := writeU32(uint32(t.Radius)); err != nil {
		return err
	}
	if err := writeU32(uint32(len(t.Entries))); err != nil {
		return err
	}
	keys := make([]string, 0, len(t.Entries))
	for k := range t.Entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out, err := encode(t.Entries[k])
		if err != nil {
			return fmt.Errorf("eth: encode entry: %w", err)
		}
		if err := writeU32(uint32(len(k))); err != nil {
			return err
		}
		if _, err := bw.WriteString(k); err != nil {
			return err
		}
		if err := writeU32(uint32(len(out))); err != nil {
			return err
		}
		if _, err := bw.Write(out); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadTableBinary parses the SaveBinary format, decoding outputs with the
// caller codec. Arbitrary input bytes yield an error, never a panic.
func LoadTableBinary(r io.Reader, decode func([]byte) (any, error)) (*Table, error) {
	br := bufio.NewReader(r)
	var head [4]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return nil, fmt.Errorf("eth: binary table header: %w", err)
	}
	if string(head[:]) != tableMagic {
		return nil, fmt.Errorf("eth: bad binary table magic %q", head[:])
	}
	readU32 := func(what string) (uint32, error) {
		var b [4]byte
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return 0, fmt.Errorf("eth: binary table %s: %w", what, err)
		}
		return binary.LittleEndian.Uint32(b[:]), nil
	}
	radius, err := readU32("radius")
	if err != nil {
		return nil, err
	}
	count, err := readU32("entry count")
	if err != nil {
		return nil, err
	}
	if count > maxTableCount {
		return nil, fmt.Errorf("eth: binary table declares %d entries, bound is %d", count, maxTableCount)
	}
	t := &Table{Radius: int(radius), Entries: make(map[string]any, count)}
	readField := func(what string) ([]byte, error) {
		n, err := readU32(what + " length")
		if err != nil {
			return nil, err
		}
		if n > maxTableField {
			return nil, fmt.Errorf("eth: binary table %s of %d bytes exceeds the bound", what, n)
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(br, b); err != nil {
			return nil, fmt.Errorf("eth: binary table %s: %w", what, err)
		}
		return b, nil
	}
	for i := uint32(0); i < count; i++ {
		keyBytes, err := readField("key")
		if err != nil {
			return nil, err
		}
		outBytes, err := readField("output")
		if err != nil {
			return nil, err
		}
		out, err := decode(outBytes)
		if err != nil {
			return nil, fmt.Errorf("eth: entry %d: %w", i, err)
		}
		key := string(keyBytes)
		if _, dup := t.Entries[key]; dup {
			return nil, fmt.Errorf("eth: entry %d: duplicate key", i)
		}
		t.Entries[key] = out
	}
	// A trailing byte means the stream is not a table (or the count lied).
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("eth: trailing bytes after binary table")
	}
	return t, nil
}

// IntBinaryCodec is the binary output codec for int-valued tables
// (little-endian int64).
func IntBinaryCodec() (encode func(any) ([]byte, error), decode func([]byte) (any, error)) {
	encode = func(v any) ([]byte, error) {
		i, ok := v.(int)
		if !ok {
			return nil, fmt.Errorf("eth: output %T is not int", v)
		}
		return binary.LittleEndian.AppendUint64(nil, uint64(int64(i))), nil
	}
	decode = func(b []byte) (any, error) {
		if len(b) != 8 {
			return nil, fmt.Errorf("eth: int output is %d bytes, want 8", len(b))
		}
		return int(int64(binary.LittleEndian.Uint64(b))), nil
	}
	return encode, decode
}
