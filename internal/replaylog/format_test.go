package replaylog

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"relaxreplay/internal/faultinject"
	"relaxreplay/internal/frame"
)

func encodeBytes(t *testing.T, l *Log) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, l); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// frameSpan locates each frame in an encoded v2/v3 stream: [start,
// end) byte offsets plus the claimed type.
type frameSpan struct {
	typ        FrameType
	start, end int
}

// frameSpans lists the frames of a clean encoded log, failing the test
// on any byte the frame scan does not accept.
func frameSpans(t *testing.T, data []byte) []frameSpan {
	t.Helper()
	var out []frameSpan
	s := frame.NewScanner(data[preambleLen:], MaxFrameLen, nil)
	for {
		f, ok := s.Next()
		if !ok {
			break
		}
		if f.BadCRC {
			t.Fatalf("bad checksum at offset %d", preambleLen+f.Off)
		}
		start := preambleLen + f.Off
		out = append(out, frameSpan{typ: FrameType(f.Type), start: start, end: start + frame.Overhead + len(f.Payload)})
	}
	if s.Skipped() != 0 || s.Tail() != 0 {
		t.Fatalf("lost framing: %d bytes skipped, %d-byte tail", s.Skipped(), s.Tail())
	}
	return out
}

// frameBytes frames payload as one frame of type typ.
func frameBytes(typ FrameType, payload []byte) []byte {
	b, err := frame.Append(nil, uint8(typ), payload, MaxFrameLen)
	if err != nil {
		panic(err)
	}
	return b
}

func TestV2FrameLayout(t *testing.T) {
	data := encodeBytes(t, sampleLog())
	frames := frameSpans(t, data)
	var types []FrameType
	for _, f := range frames {
		types = append(types, f.typ)
	}
	want := []FrameType{FrameHeader, FrameInputs, FrameInputs,
		FrameStream, FrameInterval, FrameInterval, FrameStream, FrameInterval, FrameEnd}
	if !reflect.DeepEqual(types, want) {
		t.Fatalf("frame sequence = %v, want %v", types, want)
	}
	if frames[len(frames)-1].end != len(data) {
		t.Fatalf("trailing bytes after end frame")
	}
}

// Corrupting any single byte of any frame must decode with a non-clean
// report that names the damaged frame (or, for header-region damage,
// accounts for the bytes as skipped) — and must never lose more than
// that one frame.
func TestCorruptEachFrameEachRegion(t *testing.T) {
	orig := sampleLog()
	clean := encodeBytes(t, orig)
	frames := frameSpans(t, clean)
	total := 0
	for _, s := range orig.Streams {
		total += len(s.Intervals)
	}

	regions := []struct {
		name   string
		offset func(f frameSpan) int // byte to flip
	}{
		{"frame-header", func(f frameSpan) int { return f.start + 4 }}, // type byte
		{"length", func(f frameSpan) int { return f.start + 5 }},
		{"body", func(f frameSpan) int { return f.start + 9 }},
		{"crc", func(f frameSpan) int { return f.end - 2 }},
	}
	for _, f := range frames {
		for _, reg := range regions {
			name := fmt.Sprintf("%s/%s", f.typ, reg.name)
			t.Run(name, func(t *testing.T) {
				data := append([]byte(nil), clean...)
				off := reg.offset(f)
				if off >= f.end { // zero-length payloads have no body byte
					t.Skip("frame too short for region")
				}
				data[off] ^= 0x40
				l, rep, err := DecodeRobust(bytes.NewReader(data))
				if err != nil {
					t.Fatalf("DecodeRobust hard-failed: %v", err)
				}
				if rep.Clean() {
					t.Fatalf("corruption at %s went undetected", name)
				}
				if errors.Is(rep.Err(), ErrCorruptFrame) == false && errors.Is(rep.Err(), ErrTruncated) == false {
					t.Fatalf("Err() = %v, not a typed corruption error", rep.Err())
				}
				// At most one frame's content may be lost.
				got := 0
				for _, s := range l.Streams {
					got += len(s.Intervals)
				}
				minIntervals := total
				if f.typ == FrameInterval {
					minIntervals = total - 1
				}
				if got < minIntervals {
					t.Fatalf("lost %d intervals to a single corrupt %s frame", total-got, f.typ)
				}
				// Body/CRC corruption keeps the frame header readable, so
				// the report must name the frame.
				if reg.name == "body" || reg.name == "crc" {
					if len(rep.Frames) != 1 {
						t.Fatalf("report names %d frames, want 1: %+v", len(rep.Frames), rep.Frames)
					}
					fe := rep.Frames[0]
					if fe.Type != f.typ {
						t.Fatalf("report names a %s frame, corrupted a %s frame", fe.Type, f.typ)
					}
					if f.typ == FrameInterval || f.typ == FrameStream || f.typ == FrameInputs {
						if fe.Core < 0 && reg.name == "crc" {
							t.Errorf("report did not recover the owning core: %+v", fe)
						}
					}
				}
				// Strict Decode must reject the same bytes.
				if _, err := Decode(bytes.NewReader(data)); err == nil {
					t.Fatal("strict Decode accepted corrupt bytes")
				}
			})
		}
	}
}

// An interval frame named in the report must carry the right core and
// sequence number.
func TestCorruptionReportNamesInterval(t *testing.T) {
	clean := encodeBytes(t, sampleLog())
	frames := frameSpans(t, clean)
	// Second interval of core 0 (Seq 1): frame index 5 per TestV2FrameLayout.
	f := frames[5]
	data := append([]byte(nil), clean...)
	data[f.end-1] ^= 0xFF // CRC byte
	_, rep, err := DecodeRobust(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Frames) != 1 {
		t.Fatalf("%d frame errors, want 1", len(rep.Frames))
	}
	fe := rep.Frames[0]
	if fe.Type != FrameInterval || fe.Core != 0 || fe.Seq != 1 {
		t.Fatalf("report = %+v, want interval frame core 0 seq 1", fe)
	}
	if rep.MissingIntervals != 1 {
		t.Fatalf("MissingIntervals = %d, want 1 (stream frame declared 2)", rep.MissingIntervals)
	}
}

func TestTruncatedTail(t *testing.T) {
	clean := encodeBytes(t, sampleLog())
	for _, cut := range []int{1, 5, 13, len(clean) / 2} {
		data := clean[:len(clean)-cut]
		l, rep, err := DecodeRobust(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !rep.Truncated {
			t.Fatalf("cut %d: truncation undetected", cut)
		}
		if !errors.Is(rep.Err(), ErrTruncated) && !errors.Is(rep.Err(), ErrCorruptFrame) {
			t.Fatalf("cut %d: Err() = %v", cut, rep.Err())
		}
		if l.Cores != 2 || l.Variant != "opt" {
			t.Fatalf("cut %d: header fields lost: %+v", cut, l)
		}
	}
}

func TestHeaderLostIsInferred(t *testing.T) {
	clean := encodeBytes(t, sampleLog())
	frames := frameSpans(t, clean)
	data := append([]byte(nil), clean...)
	data[frames[0].start+10] ^= 1 // header frame body
	l, rep, err := DecodeRobust(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.HeaderLost {
		t.Fatal("HeaderLost not set")
	}
	if l.Cores != 2 {
		t.Fatalf("inferred Cores = %d, want 2", l.Cores)
	}
}

func TestDuplicatedFrameIsDropped(t *testing.T) {
	orig := sampleLog()
	inj := faultinject.New(21, faultinject.LogDupFrame)
	var buf bytes.Buffer
	if err := EncodeV3With(&buf, orig, V3Options{}, inj); err != nil {
		t.Fatal(err)
	}
	if inj.Counts()[faultinject.LogDupFrame] != 1 {
		t.Fatalf("dupframe fired %d times", inj.Counts()[faultinject.LogDupFrame])
	}
	l, rep, err := DecodeRobust(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.DupFrames != 1 {
		t.Fatalf("DupFrames = %d, want 1", rep.DupFrames)
	}
	if rep.Dropped != 0 || rep.Truncated {
		t.Fatalf("dup frame misclassified: %+v", rep)
	}
	if !reflect.DeepEqual(l, orig) {
		t.Fatal("log with duplicated frame did not decode back to the original")
	}
}

// EncodeV3With(nil) must be byte-identical to EncodeV3, and an
// injector with no armed log points must not change the bytes either.
func TestEncodeV3WithDisabledInjectorIsByteIdentical(t *testing.T) {
	orig := sampleLog()
	plain := encodeV3Bytes(t, orig, V3Options{})
	var with bytes.Buffer
	if err := EncodeV3With(&with, orig, V3Options{}, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, with.Bytes()) {
		t.Fatal("EncodeV3With(nil) differs from EncodeV3")
	}
	with.Reset()
	inj := faultinject.New(3, faultinject.ICDrop) // no log points armed
	if err := EncodeV3With(&with, orig, V3Options{}, inj); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, with.Bytes()) {
		t.Fatal("EncodeV3With(injector without log points) differs from EncodeV3")
	}
}

// Hostile headers: huge claimed counts must error out without huge
// allocations (run under -test.timeout this would OOM/hang before the
// clamps existed).
func TestHostileHeaders(t *testing.T) {
	u16 := func(v uint16) []byte { b := make([]byte, 2); binary.LittleEndian.PutUint16(b, v); return b }
	u32 := func(v uint32) []byte { b := make([]byte, 4); binary.LittleEndian.PutUint32(b, v); return b }
	u64 := func(v uint64) []byte { b := make([]byte, 8); binary.LittleEndian.PutUint64(b, v); return b }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	v1 := func(parts ...[]byte) []byte {
		return cat(append([][]byte{[]byte("RRLG"), u16(1)}, parts...)...)
	}
	cases := map[string][]byte{
		// v1: variant length 0xFFFF with no bytes behind it.
		"v1-vlen": v1(u32(2), []byte{0}, u16(0xFFFF)),
		// v1: 4 billion input streams.
		"v1-inputs": v1(u32(2), []byte{0}, u16(0), u32(0xFFFFFFFF)),
		// v1: one input stream claiming 4 billion values.
		"v1-input-count": v1(u32(2), []byte{0}, u16(0), u32(1), u32(0xFFFFFFFF)),
		// v1: 4 billion streams.
		"v1-streams": v1(u32(2), []byte{0}, u16(0), u32(0), u32(0xFFFFFFFF)),
		// v1: stream with 4 billion intervals.
		"v1-intervals": v1(u32(2), []byte{0}, u16(0), u32(0), u32(1), u32(0), u32(0xFFFFFFFF)),
		// v1: interval with 4 billion entries.
		"v1-entries": v1(u32(2), []byte{0}, u16(0), u32(0), u32(1), u32(0), u32(1),
			u64(0), u64(0), u32(0xFFFFFFFF), u32(0)),
		// v1: interval with 4 billion preds.
		"v1-preds": v1(u32(2), []byte{0}, u16(0), u32(0), u32(1), u32(0), u32(1),
			u64(0), u64(0), u32(0), u32(0xFFFFFFFF)),
	}
	// v2: a header frame claiming 2^32-1 cores, with a *valid* CRC so
	// only the clamp can reject it.
	hostile := cat(u32(0xFFFFFFFF), []byte{1}, u32(0xFFFFFFFF), u16(0xFFFF))
	cases["v2-header"] = cat([]byte("RRLG"), u16(2), frameBytes(FrameHeader, hostile))

	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Decode(bytes.NewReader(data)); err == nil {
				t.Fatal("strict Decode accepted a hostile header")
			}
			// DecodeRobust must also survive (and not allocate wildly —
			// enforced by this completing instantly under -timeout).
			_, rep, err := DecodeRobust(bytes.NewReader(data))
			if err == nil && rep.Clean() {
				t.Fatal("robust decode called hostile bytes clean")
			}
		})
	}
}

// encodeV1 writes the pre-framing format, so tests can exercise the
// v1 decode path against freshly written v1 bytes.
func encodeV1(w io.Writer, l *Log) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	put := func(vs ...any) error {
		for _, v := range vs {
			if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
				return err
			}
		}
		return nil
	}
	patched := uint8(0)
	if l.Patched {
		patched = 1
	}
	if err := put(uint16(formatV1), uint32(l.Cores), patched, uint16(len(l.Variant))); err != nil {
		return err
	}
	if _, err := bw.WriteString(l.Variant); err != nil {
		return err
	}
	if err := put(uint32(len(l.Inputs))); err != nil {
		return err
	}
	for _, in := range l.Inputs {
		if err := put(uint32(len(in))); err != nil {
			return err
		}
		for _, v := range in {
			if err := put(v); err != nil {
				return err
			}
		}
	}
	if err := put(uint32(len(l.Streams))); err != nil {
		return err
	}
	for _, s := range l.Streams {
		if err := put(uint32(s.Core), uint32(len(s.Intervals))); err != nil {
			return err
		}
		for _, iv := range s.Intervals {
			if err := put(iv.Seq, iv.Timestamp, uint32(len(iv.Entries)), uint32(len(iv.Preds))); err != nil {
				return err
			}
			var p frame.Buf
			for _, e := range iv.Entries {
				if err := putEntry(&p, e); err != nil {
					return err
				}
			}
			if _, err := bw.Write(p.Bytes()); err != nil {
				return err
			}
			for _, pr := range iv.Preds {
				if err := put(uint32(pr.Core), pr.Seq); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// v1 files still decode, and a v1-decoded log re-encodes in v2
// byte-identically to encoding the original (the satellite round-trip
// requirement).
func TestV1DecodeAndReencode(t *testing.T) {
	orig := sampleLog()
	var v1buf bytes.Buffer
	if err := encodeV1(&v1buf, orig); err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(bytes.NewReader(v1buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, orig) {
		t.Fatal("v1 round-trip mismatch")
	}
	if !bytes.Equal(encodeBytes(t, dec), encodeBytes(t, orig)) {
		t.Fatal("v2 re-encode of a v1-decoded log is not byte-identical")
	}
}

func TestV1TruncatedKeepsPrefix(t *testing.T) {
	orig := sampleLog()
	var buf bytes.Buffer
	if err := encodeV1(&buf, orig); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()-10]
	l, rep, err := DecodeRobust(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Truncated || rep.Version != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if l.Cores != 2 || len(l.Streams) == 0 {
		t.Fatalf("v1 partial decode kept nothing: %+v", l)
	}
	if _, err := Decode(bytes.NewReader(data)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("strict v1 decode of truncated log: %v", err)
	}
}

func TestPatchPartial(t *testing.T) {
	l := &Log{
		Cores: 1,
		Streams: []CoreLog{{Core: 0, Intervals: []Interval{
			// Interval 0 (Seq 0) was lost to corruption; Seq 1's store
			// performed there (offset 1) and can no longer be patched.
			{Seq: 1, CISN: 1, Timestamp: 100, Entries: []Entry{
				{Type: InorderBlock, Size: 1},
				{Type: ReorderedStore, Addr: 0x10, Value: 9, Offset: 1},
			}},
			{Seq: 2, CISN: 2, Timestamp: 200, Entries: []Entry{
				{Type: InorderBlock, Size: 1},
				{Type: ReorderedStore, Addr: 0x20, Value: 8, Offset: 1},
			}},
		}}},
	}
	if _, err := l.Patch(); err == nil {
		t.Fatal("strict Patch should fail: Seq 1's store targets the lost Seq 0")
	}
	p, dropped, err := l.PatchPartial()
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1 (Seq 1's target is gone)", dropped)
	}
	iv0 := p.Streams[0].Intervals[0]
	last := iv0.Entries[len(iv0.Entries)-1]
	if last.Type != PatchedStore || last.Addr != 0x20 {
		t.Fatalf("Seq 2's store not patched into Seq 1: %+v", iv0.Entries)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

// A store whose target was lost in the middle of a stream has no
// interval to go to. Strict Patch must say so, not fall back on the
// interval at the same slice position, and PatchPartial must drop it.
func TestPatchRejectsMidStreamGap(t *testing.T) {
	l := &Log{
		Cores: 1,
		Streams: []CoreLog{{Core: 3, Intervals: []Interval{
			{Seq: 0, CISN: 0, Timestamp: 10, Entries: []Entry{{Type: InorderBlock, Size: 1}}},
			{Seq: 1, CISN: 1, Timestamp: 20, Entries: []Entry{{Type: InorderBlock, Size: 1}}},
			// Seq 2 is missing; Seq 3's store performed there.
			{Seq: 3, CISN: 3, Timestamp: 40, Entries: []Entry{
				{Type: ReorderedStore, Addr: 0x30, Value: 7, Offset: 1},
			}},
		}}},
	}
	_, err := l.Patch()
	if err == nil {
		t.Fatal("strict Patch placed a store whose target interval is missing")
	}
	for _, want := range []string{"core 3", "interval 3", "interval 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	p, dropped, err := l.PatchPartial()
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
	if n := p.CountEntries(PatchedStore); n != 0 {
		t.Fatalf("PatchPartial placed %d stores, want none", n)
	}
	if got := p.Streams[0].Intervals[2].Entries[0]; got.Type != Dummy {
		t.Fatalf("counting position = %+v, want Dummy", got)
	}
}

// PatchPartial on an intact log must agree exactly with Patch.
func TestPatchPartialMatchesPatchOnCleanLog(t *testing.T) {
	orig := sampleLog()
	a, err := orig.Patch()
	if err != nil {
		t.Fatal(err)
	}
	b, dropped, err := orig.PatchPartial()
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Fatalf("dropped = %d on a clean log", dropped)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("PatchPartial diverges from Patch on a clean log")
	}
}
