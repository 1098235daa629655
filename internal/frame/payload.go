package frame

import (
	"encoding/binary"
	"slices"
)

// Buf builds a frame payload: little-endian fixed-width integers,
// varints, and u16-length-prefixed strings. The zero value is empty
// and ready; Reset keeps the capacity for the next payload.
type Buf struct{ b []byte }

// Bytes returns the payload built so far. It aliases the Buf until
// the next Reset.
func (p *Buf) Bytes() []byte { return p.b }

// Cap is the capacity the Buf holds for reuse.
func (p *Buf) Cap() int { return cap(p.b) }

// Reset empties the payload, keeping its capacity.
func (p *Buf) Reset() { p.b = p.b[:0] }

// Grow ensures room for n more bytes.
func (p *Buf) Grow(n int) { p.b = slices.Grow(p.b, n) }

func (p *Buf) U8(v uint8)   { p.b = append(p.b, v) }
func (p *Buf) U16(v uint16) { p.b = binary.LittleEndian.AppendUint16(p.b, v) }
func (p *Buf) U32(v uint32) { p.b = binary.LittleEndian.AppendUint32(p.b, v) }
func (p *Buf) U64(v uint64) { p.b = binary.LittleEndian.AppendUint64(p.b, v) }

// Uvarint appends an unsigned varint.
func (p *Buf) Uvarint(v uint64) { p.b = binary.AppendUvarint(p.b, v) }

// Svarint appends a zigzag-encoded signed varint.
func (p *Buf) Svarint(v int64) { p.Uvarint(uint64(v<<1) ^ uint64(v>>63)) }

// Str appends s behind a u16 length. Callers clamp s first: a longer
// string would have its length truncated.
func (p *Buf) Str(s string) {
	p.U16(uint16(len(s)))
	p.b = append(p.b, s...)
}

// Raw appends b as is.
func (p *Buf) Raw(b []byte) { p.b = append(p.b, b...) }

// Cursor is a bounds-checked little-endian reader over untrusted
// bytes. A read past the end (or a negative Take) sets Short, moves
// to the end, and returns a zero value, so a parser can read a whole
// structure and check Short once.
type Cursor struct {
	Data  []byte
	Pos   int
	Short bool
}

// Remaining is the number of unread bytes.
func (c *Cursor) Remaining() int { return len(c.Data) - c.Pos }

// Rest returns the unread bytes without consuming them.
func (c *Cursor) Rest() []byte { return c.Data[c.Pos:] }

// Take consumes and returns the next n bytes, aliasing Data.
func (c *Cursor) Take(n int) []byte {
	if n < 0 || c.Remaining() < n {
		c.Short = true
		c.Pos = len(c.Data)
		return nil
	}
	out := c.Data[c.Pos : c.Pos+n]
	c.Pos += n
	return out
}

func (c *Cursor) U8() uint8 {
	if s := c.Take(1); s != nil {
		return s[0]
	}
	return 0
}

func (c *Cursor) U16() uint16 {
	if s := c.Take(2); s != nil {
		return binary.LittleEndian.Uint16(s)
	}
	return 0
}

func (c *Cursor) U32() uint32 {
	if s := c.Take(4); s != nil {
		return binary.LittleEndian.Uint32(s)
	}
	return 0
}

func (c *Cursor) U64() uint64 {
	if s := c.Take(8); s != nil {
		return binary.LittleEndian.Uint64(s)
	}
	return 0
}

// Uvarint reads an unsigned varint. A malformed or overlong encoding
// sets Short, like any other truncated read.
func (c *Cursor) Uvarint() uint64 {
	v, n := binary.Uvarint(c.Data[c.Pos:])
	if n <= 0 {
		c.Short = true
		c.Pos = len(c.Data)
		return 0
	}
	c.Pos += n
	return v
}

// Svarint reads a zigzag-encoded signed varint.
func (c *Cursor) Svarint() int64 {
	u := c.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Str reads a u16-length-prefixed string, setting Short when the
// length exceeds limit.
func (c *Cursor) Str(limit int) string {
	n := int(c.U16())
	if n > limit {
		c.Short = true
		c.Pos = len(c.Data)
		return ""
	}
	return string(c.Take(n))
}
