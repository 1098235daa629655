package replaylog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
)

// The encoder's wire format stores every count in a fixed-width field
// (variant length in a u16, frame length and element counts in u32s).
// An input exceeding a field — or exceeding the decoder's clamps,
// which are tighter — must be rejected with ErrOversizeFrame before
// any byte is written, never silently truncated into a frame that
// checksums clean but decodes to the wrong log.

func TestEncodeRejectsOversizeVariant(t *testing.T) {
	l := sampleLog()
	l.Variant = strings.Repeat("x", MaxVariantLen+1)
	var buf bytes.Buffer
	err := Encode(&buf, l)
	if !errors.Is(err, ErrOversizeFrame) {
		t.Fatalf("Encode(oversize variant) = %v, want ErrOversizeFrame", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("encoder wrote %d bytes before rejecting the log", buf.Len())
	}
}

func TestEncodeRejectsOversizeCounts(t *testing.T) {
	cases := []struct {
		name string
		mut  func(l *Log)
	}{
		{"core count", func(l *Log) { l.Cores = MaxCores + 1 }},
		{"negative core count", func(l *Log) { l.Cores = -1 }},
		{"input stream count", func(l *Log) { l.Inputs = make([][]uint64, MaxCores+1) }},
		{"stream core id", func(l *Log) { l.Streams[0].Core = MaxCores }},
		{"negative stream core", func(l *Log) { l.Streams[0].Core = -3 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := sampleLog()
			tc.mut(l)
			var buf bytes.Buffer
			err := Encode(&buf, l)
			if !errors.Is(err, ErrOversizeFrame) {
				t.Fatalf("Encode = %v, want ErrOversizeFrame", err)
			}
			if buf.Len() != 0 {
				t.Fatalf("encoder wrote %d bytes before rejecting the log", buf.Len())
			}
		})
	}
}

// The frame count the encoder accumulates is published in the end
// frame and consumed by the decoder's truncation check: regression test
// for both directions (correct value on a clean log, detection when a
// whole frame vanishes without leaving corrupt bytes behind).
func TestFrameCountTrailer(t *testing.T) {
	data := encodeBytes(t, sampleLog())
	frames := frameSpans(t, data)
	endFrame := frames[len(frames)-1]
	if endFrame.typ != FrameEnd {
		t.Fatalf("last frame is %v, want end", endFrame.typ)
	}
	payload := data[endFrame.start+9 : endFrame.end-4]
	got := binary.LittleEndian.Uint32(payload)
	if want := uint32(len(frames) - 1); got != want {
		t.Fatalf("end frame declares %d frames, want %d (all frames preceding it)", got, want)
	}

	// Splice out one inputs frame entirely. Stream frames still declare
	// their interval counts, so only the end frame's count can notice
	// this loss; the decode must report truncation.
	var cut frameSpan
	for _, f := range frames {
		if f.typ == FrameInputs {
			cut = f
			break
		}
	}
	if cut.end == 0 {
		t.Fatal("no inputs frame in sample log")
	}
	spliced := append(append([]byte(nil), data[:cut.start]...), data[cut.end:]...)
	_, rep, err := DecodeParallel(bytes.NewReader(spliced))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Truncated {
		t.Fatalf("decode of log missing a whole frame: report %+v, want Truncated", rep)
	}
}
