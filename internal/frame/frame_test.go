package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"testing"
)

func mustAppend(t testing.TB, dst []byte, typ uint8, payload []byte) []byte {
	t.Helper()
	out, err := Append(dst, typ, payload, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAppendLayout(t *testing.T) {
	payload := []byte("hello")
	got := mustAppend(t, []byte("pre"), 7, payload)
	if !bytes.HasPrefix(got, []byte("pre")) {
		t.Fatalf("dst prefix lost: %q", got)
	}
	f := got[3:]
	if len(f) != Overhead+len(payload) {
		t.Fatalf("frame is %d bytes, want %d", len(f), Overhead+len(payload))
	}
	if [4]byte(f[:4]) != Sync || f[4] != 7 || binary.LittleEndian.Uint32(f[5:9]) != uint32(len(payload)) {
		t.Fatalf("bad header % x", f[:HeaderLen])
	}
	if !bytes.Equal(f[HeaderLen:len(f)-4], payload) {
		t.Fatalf("bad payload % x", f[HeaderLen:len(f)-4])
	}
	if crc := crc32.Checksum(f[4:len(f)-4], crc32.MakeTable(crc32.Castagnoli)); binary.LittleEndian.Uint32(f[len(f)-4:]) != crc {
		t.Fatal("checksum does not cover type|length|payload")
	}
}

func TestAppendRefusesOverLimit(t *testing.T) {
	dst := []byte("keep")
	out, err := Append(dst, 1, make([]byte, 9), 8)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	if !bytes.Equal(out, dst) {
		t.Fatalf("dst changed on refusal: %q", out)
	}
	if _, err := Append(nil, 1, make([]byte, 8), 8); err != nil {
		t.Fatalf("payload at the limit refused: %v", err)
	}
}

func TestAppendReusesCapacity(t *testing.T) {
	payload := make([]byte, 64)
	buf := mustAppend(t, nil, 1, payload)
	if n := testing.AllocsPerRun(100, func() { buf = mustAppend(t, buf[:0], 2, payload) }); n != 0 {
		t.Fatalf("%v allocs per Append into reused capacity", n)
	}
}

// TestScannerAccounting walks every salvage path once: leading
// garbage, a sync-word tease, a rejected type, a checksum failure, a
// frame running past the end, and a short tail.
func TestScannerAccounting(t *testing.T) {
	var data []byte
	data = append(data, "junk"...)
	data = mustAppend(t, data, 1, []byte("one"))
	data = append(data, 0xF5, 'R', 'F') // sync-word tease
	data = mustAppend(t, data, 9, []byte("filtered"))
	bad := mustAppend(t, nil, 2, []byte("two"))
	bad[len(bad)-1] ^= 0xFF
	badOff := len(data)
	data = append(data, bad...)
	data = mustAppend(t, data, 3, []byte("three"))
	torn := mustAppend(t, nil, 4, []byte("runs past the end"))
	data = append(data, torn[:len(torn)-3]...)

	s := NewScanner(data, 1<<10, func(typ uint8) bool { return typ < 9 })
	var intact []string
	var yielded int
	badSeen := false
	for {
		f, ok := s.Next()
		if !ok {
			break
		}
		if f.BadCRC {
			if f.Off != badOff || f.Type != 2 || string(f.Payload) != "two" {
				t.Fatalf("bad candidate = %+v", f)
			}
			badSeen = true
			continue
		}
		intact = append(intact, string(f.Payload))
		yielded += Overhead + len(f.Payload)
	}
	if got := []string{"one", "three"}; len(intact) != 2 || intact[0] != got[0] || intact[1] != got[1] {
		t.Fatalf("intact frames = %q, want %q", intact, got)
	}
	if !badSeen {
		t.Fatal("checksum failure not reported")
	}
	if !s.Torn() {
		t.Fatal("frame running past the end not flagged torn")
	}
	if s.Tail() >= Overhead {
		t.Fatalf("tail %d not short", s.Tail())
	}
	if int64(yielded)+s.Skipped()+int64(s.Tail()) != int64(len(data)) {
		t.Fatalf("yielded %d + skipped %d + tail %d != %d", yielded, s.Skipped(), s.Tail(), len(data))
	}
}

func TestReaderBudget(t *testing.T) {
	data := append(bytes.Repeat([]byte{0}, 64), mustAppend(t, nil, 1, []byte("x"))...)
	if _, _, err := NewReader(bytes.NewReader(data), 1<<10, 16).Next(); !errors.Is(err, ErrResyncBudget) {
		t.Fatalf("err = %v, want ErrResyncBudget", err)
	}
	typ, payload, err := NewReader(bytes.NewReader(data), 1<<10, 0).Next()
	if err != nil || typ != 1 || string(payload) != "x" {
		t.Fatalf("unbudgeted read = %d %q %v", typ, payload, err)
	}
}

func TestReaderTornFrame(t *testing.T) {
	data := mustAppend(t, nil, 1, []byte("payload"))
	if _, _, err := NewReader(bytes.NewReader(data[:len(data)-2]), 1<<10, 0).Next(); err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestBufCursorRoundTrip(t *testing.T) {
	var p Buf
	p.U8(1)
	p.U16(2)
	p.U32(3)
	p.U64(4)
	p.Uvarint(300)
	p.Svarint(-5)
	p.Str("tenant")
	p.Raw([]byte("tail"))
	c := &Cursor{Data: p.Bytes()}
	if c.U8() != 1 || c.U16() != 2 || c.U32() != 3 || c.U64() != 4 ||
		c.Uvarint() != 300 || c.Svarint() != -5 || c.Str(16) != "tenant" ||
		string(c.Rest()) != "tail" || c.Short {
		t.Fatal("round trip mismatch")
	}
	if string(c.Take(c.Remaining())) != "tail" || c.Remaining() != 0 {
		t.Fatal("Take(Remaining) did not drain")
	}
	if c.U32() != 0 || !c.Short {
		t.Fatal("read past the end did not set Short")
	}
}

func TestCursorRejects(t *testing.T) {
	c := &Cursor{Data: []byte{1, 2, 3}}
	if c.Take(-1) != nil || !c.Short || c.Remaining() != 0 {
		t.Fatal("negative Take accepted")
	}
	var p Buf
	p.Str("too long")
	c = &Cursor{Data: p.Bytes()}
	if c.Str(3) != "" || !c.Short {
		t.Fatal("over-limit string accepted")
	}
	c = &Cursor{Data: []byte{0x80, 0x80}}
	if c.Uvarint() != 0 || !c.Short {
		t.Fatal("truncated varint accepted")
	}
}

// scanSeeds are the shapes FuzzFrameScan starts from: clean frames,
// salvage paths, and a torn tail.
func scanSeeds(t testing.TB) [][]byte {
	clean := mustAppend(t, nil, 1, []byte("header"))
	clean = mustAppend(t, clean, 6, bytes.Repeat([]byte{0xAB}, 40))
	clean = mustAppend(t, clean, 0x22, nil)

	damaged := append([]byte("lead"), clean...)
	damaged = append(damaged, 0xF5, 'R', 'F', '2', 5, 0xFF, 0xFF, 0xFF, 0xFF)
	bad := mustAppend(t, nil, 3, []byte("bad crc"))
	bad[HeaderLen] ^= 1
	damaged = append(damaged, bad...)
	damaged = mustAppend(t, damaged, 5, []byte("after"))

	torn := mustAppend(t, nil, 4, []byte("torn tail frame"))
	torn = append(clean[:len(clean):len(clean)], torn[:len(torn)-5]...)
	return [][]byte{clean, damaged, torn, {}, {0xF5, 'R', 'F', '2'}}
}

// FuzzFrameScan throws arbitrary bytes at the salvage scanner (twice:
// permissive, and with a type filter and a small limit) and at the
// streaming reader. Invariants: no panic; every intact frame the
// scanner yields re-appends to exactly the input bytes at its offset;
// yielded + skipped + tail bytes account for the whole input; and
// every frame the reader returns is a verified frame of the input.
func FuzzFrameScan(f *testing.F) {
	for _, seed := range scanSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, cfg := range []struct {
			limit  int
			accept func(uint8) bool
		}{
			{1 << 26, nil},
			{32, func(typ uint8) bool { return typ >= 1 && typ <= 8 }},
		} {
			s := NewScanner(data, cfg.limit, cfg.accept)
			var yielded int64
			for {
				fr, ok := s.Next()
				if !ok {
					break
				}
				if fr.BadCRC {
					continue
				}
				end := fr.Off + Overhead + len(fr.Payload)
				re, err := Append(nil, fr.Type, fr.Payload, cfg.limit)
				if err != nil || end > len(data) || !bytes.Equal(re, data[fr.Off:end]) {
					t.Fatalf("frame at %d does not re-append to its input bytes (%v)", fr.Off, err)
				}
				if cfg.accept != nil && !cfg.accept(fr.Type) {
					t.Fatalf("filtered type %d yielded", fr.Type)
				}
				yielded += int64(end - fr.Off)
			}
			if yielded+s.Skipped()+int64(s.Tail()) != int64(len(data)) {
				t.Fatalf("yielded %d + skipped %d + tail %d != %d", yielded, s.Skipped(), s.Tail(), len(data))
			}
			if s.Tail() >= Overhead {
				t.Fatalf("tail %d bytes left unscanned", s.Tail())
			}
		}

		r := NewReader(bytes.NewReader(data), 1<<20, 0)
		for {
			typ, payload, err := r.Next()
			if err != nil {
				break
			}
			re, err := Append(nil, typ, payload, 1<<20)
			if err != nil || !bytes.Contains(data, re) {
				t.Fatalf("reader returned a frame not in the input (%v)", err)
			}
		}
	})
}
