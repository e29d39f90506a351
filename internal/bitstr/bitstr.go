// Package bitstr implements variable-length bit strings and the
// self-delimiting marker code used throughout the advice schemas of
// "Local Advice and Local Decompression" (PODC 2024).
//
// The paper's Section 4 encodes a bit string B as B” = header · blocks · 0,
// where the header is the fixed pattern 11110110, each 0-bit of B becomes the
// block 110, each 1-bit becomes the block 1110, and a final 0 terminates the
// payload. The resulting string is self-delimiting: a decoder scanning a path
// of single-bit labels can recover both the start (the unique header) and the
// content of B without any out-of-band length information. The same code is
// reused by the schemas of Sections 5-7 and by the generic variable-length to
// one-bit conversion (Lemma 2).
package bitstr

import (
	"fmt"
	"strings"
)

// String is a variable-length sequence of bits. The zero value is the empty
// string, ready to use. Bits are stored one per byte (0 or 1) for simplicity
// and direct indexability; advice strings in this codebase are short, so
// packing is not worth the complexity.
type String struct {
	bits []byte
}

// New returns a bit string holding the given bits. Each argument must be 0
// or 1.
func New(bits ...int) String {
	s := String{bits: make([]byte, len(bits))}
	for i, b := range bits {
		if b != 0 && b != 1 {
			panic(fmt.Sprintf("bitstr: bit %d is %d, want 0 or 1", i, b))
		}
		s.bits[i] = byte(b)
	}
	return s
}

// Parse builds a bit string from a textual form such as "110101".
// Characters other than '0' and '1' yield an error.
func Parse(text string) (String, error) {
	s := String{bits: make([]byte, 0, len(text))}
	for i, r := range text {
		switch r {
		case '0':
			s.bits = append(s.bits, 0)
		case '1':
			s.bits = append(s.bits, 1)
		default:
			return String{}, fmt.Errorf("bitstr: invalid character %q at offset %d", r, i)
		}
	}
	return s, nil
}

// MustParse is Parse that panics on error; intended for constants in tests.
func MustParse(text string) String {
	s, err := Parse(text)
	if err != nil {
		panic(err)
	}
	return s
}

// FromUint encodes v as exactly width bits, most significant first.
// It panics if v does not fit in width bits.
func FromUint(v uint64, width int) String {
	if width < 0 || width < 64 && v>>uint(width) != 0 {
		panic(fmt.Sprintf("bitstr: value %d does not fit in %d bits", v, width))
	}
	s := String{bits: make([]byte, width)}
	for i := 0; i < width; i++ {
		s.bits[i] = byte(v >> uint(width-1-i) & 1)
	}
	return s
}

// Len returns the number of bits.
func (s String) Len() int { return len(s.bits) }

// Bit returns the i-th bit (0 or 1).
func (s String) Bit(i int) int { return int(s.bits[i]) }

// Append returns a new string with the given bits appended.
func (s String) Append(bits ...int) String {
	out := String{bits: make([]byte, len(s.bits), len(s.bits)+len(bits))}
	copy(out.bits, s.bits)
	for _, b := range bits {
		if b != 0 && b != 1 {
			panic(fmt.Sprintf("bitstr: appended bit is %d, want 0 or 1", b))
		}
		out.bits = append(out.bits, byte(b))
	}
	return out
}

// Concat returns the concatenation s · t.
func (s String) Concat(t String) String {
	out := String{bits: make([]byte, 0, len(s.bits)+len(t.bits))}
	out.bits = append(out.bits, s.bits...)
	out.bits = append(out.bits, t.bits...)
	return out
}

// Slice returns the substring [from, to).
func (s String) Slice(from, to int) String {
	out := String{bits: make([]byte, to-from)}
	copy(out.bits, s.bits[from:to])
	return out
}

// Uint decodes the whole string as a big-endian unsigned integer.
// It panics if the string is longer than 64 bits.
func (s String) Uint() uint64 {
	if len(s.bits) > 64 {
		panic(fmt.Sprintf("bitstr: string of %d bits does not fit in uint64", len(s.bits)))
	}
	var v uint64
	for _, b := range s.bits {
		v = v<<1 | uint64(b)
	}
	return v
}

// String renders the bits as text, e.g. "11010".
func (s String) String() string {
	var b strings.Builder
	b.Grow(len(s.bits))
	for _, bit := range s.bits {
		b.WriteByte('0' + bit)
	}
	return b.String()
}

// Equal reports whether s and t hold the same bits.
func (s String) Equal(t String) bool {
	if len(s.bits) != len(t.bits) {
		return false
	}
	for i, b := range s.bits {
		if t.bits[i] != b {
			return false
		}
	}
	return true
}

// Ones returns the number of 1-bits.
func (s String) Ones() int {
	n := 0
	for _, b := range s.bits {
		n += int(b)
	}
	return n
}

// Bits returns a copy of the underlying bits as ints.
func (s String) Bits() []int {
	out := make([]int, len(s.bits))
	for i, b := range s.bits {
		out[i] = int(b)
	}
	return out
}
