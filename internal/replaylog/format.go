package replaylog

import (
	"errors"
	"fmt"
	"strings"
)

// On-disk format v2 (see DESIGN.md "Log format v2" for the frame
// diagram). The file is a fixed preamble followed by a sequence of
// independently-checksummed frames in the envelope of internal/frame:
//
//	file  := magic "RRLG" | version u16 (LE) | frame*
//	frame := sync | type u8 | length u32 (LE, payload bytes)
//	       | payload | crc32c u32 (LE, over type|length|payload)
//
// Frame payloads (all integers little-endian):
//
//	header   (1): cores u32 | patched u8 | ninputs u32 | vlen u16 | variant
//	inputs   (2): core u32 | count u32 | count × u64
//	stream   (3): core u32 | intervals u32
//	interval (4): core u32 | seq u64 | timestamp u64 | nent u32 | npred u32
//	              | entries (v1 entry encoding) | preds (core u32, seq u64 each)
//	end      (5): frames u32 (number of preceding frames)
//
// One interval per frame is the unit of loss: a corrupt frame costs
// one interval, never the log. The sync word lets the decoder resync
// after arbitrary corruption; the CRC makes acceptance explicit; the
// stream frames declare expected interval counts so truncation is
// detected even when the end frame is lost; the end frame detects
// clean-tail truncation. Version 1 files (no framing, no checksums)
// still decode.

// On-disk format v3 (see DESIGN.md "Log format v3"), the format every
// writer outside this package produces, keeps the same preamble and
// the same framing, so one scan loop (decode.go) salvages both, and
// replaces the per-interval frames with compressed *group* frames plus
// a seekable index footer:
//
//	file  := magic "RRLG" | version u16 = 3 | frame* | index | end
//	group (6): flags u8 | core uvarint | body (raw, or flate when flags&1)
//	index (7): nspans uvarint | span*
//	span  := core uvarint | firstSeq uvarint | lastSeq-firstSeq uvarint
//	       | offset uvarint | length uvarint
//	end   (5): frames u32 | index offset u64 (LE; byte offset of the
//	           index frame's sync word from the start of the file)
//
// A v3 file may additionally carry one provenance frame per core,
// written between the group frames and the index footer:
//
//	provenance (8): ver u8 = 1 | core uvarint | count uvarint | record*
//	record := seq uvarint | cause u8 | cycle uvarint | traq uvarint
//	        | snoop uvarint | conflictLine uvarint | conflictWrite u8
//	        | remoteCore svarint | nreorders uvarint | reorder*
//	reorder := kind u8 | offset uvarint | cycle uvarint
//
// The frame is observational sideband: decoders that predate it (and
// the v2 decoder, which never sees it written) skip it via the normal
// resync path, and a future payload version is skipped cleanly by
// matching on the leading version byte.
//
// A group body holds up to DefaultGroupSize consecutive intervals
// of one core, delta-encoded: the first interval carries absolute
// Seq/Timestamp varints, later ones carry (strictly positive) Seq
// deltas and (non-negative) Timestamp deltas; store/atomic addresses
// are zigzag deltas against the previous address in the group; every
// other entry field is a varint. The group frame is the unit of loss —
// a corrupt frame costs at most one group of intervals — and is
// self-contained, so the robust decoder salvages frame by frame and
// OpenIndexed decodes one group without touching the rest of the file.
// The index footer is advisory: destroying it (or the end frame) only
// costs the O(log n) seek; linear decode recovers everything else.

// FrameType discriminates v2/v3 frames.
type FrameType uint8

const (
	FrameInvalid  FrameType = 0
	FrameHeader   FrameType = 1
	FrameInputs   FrameType = 2
	FrameStream   FrameType = 3
	FrameInterval FrameType = 4
	FrameEnd      FrameType = 5
	// FrameIvGroup is a v3 compressed interval-group frame.
	FrameIvGroup FrameType = 6
	// FrameIndex is the v3 segment-index footer frame.
	FrameIndex FrameType = 7
	// FrameProvenance is a v3 per-core interval-provenance sideband
	// frame (termination causes, conflict lines, reorder instants);
	// see provenance.go for the payload layout. Self-contained and
	// CRC32C-framed like every other frame, so DecodeParallel salvages
	// it independently and pre-provenance decoders resync past it.
	FrameProvenance FrameType = 8
)

func (t FrameType) String() string {
	switch t {
	case FrameHeader:
		return "header"
	case FrameInputs:
		return "inputs"
	case FrameStream:
		return "stream"
	case FrameInterval:
		return "interval"
	case FrameEnd:
		return "end"
	case FrameIvGroup:
		return "group"
	case FrameIndex:
		return "index"
	case FrameProvenance:
		return "provenance"
	}
	return fmt.Sprintf("frame(%d)", uint8(t))
}

// Decode limits: every length or count field read from untrusted bytes
// is clamped against these maxima before any allocation, so a hostile
// header can claim gigabytes but never allocate them.
const (
	// MaxFrameLen bounds a single v2 or v3 frame payload (64 MiB).
	MaxFrameLen = 1 << 26
	// MaxVariantLen bounds the variant string ("base"/"opt" in practice).
	MaxVariantLen = 1 << 10
	// MaxCores bounds core counts and per-core table sizes.
	MaxCores = 1 << 16
	// MaxInputLen bounds one core's recorded input stream (v1 decode).
	MaxInputLen = 1 << 24
	// MaxIntervalsPerCore bounds one core's interval count (v1 decode).
	MaxIntervalsPerCore = 1 << 24
	// MaxEntriesPerInterval bounds one interval's entry count.
	MaxEntriesPerInterval = 1 << 22
	// MaxPredsPerInterval bounds one interval's dependence-edge count.
	MaxPredsPerInterval = 1 << 20
	// MaxGroupIntervals bounds one v3 group frame's interval count.
	MaxGroupIntervals = 1 << 16
	// MaxIndexSpans bounds the v3 index footer's span count.
	MaxIndexSpans = 1 << 24
)

// Typed decode errors. Callers classify with errors.Is.
var (
	// ErrCorruptFrame reports that one or more frames failed their
	// checksum or structural checks and were dropped.
	ErrCorruptFrame = errors.New("replaylog: corrupt frame")
	// ErrTruncated reports that the stream ended before the log did.
	ErrTruncated = errors.New("replaylog: log truncated")
	// ErrOversizeFrame reports that an encoder input exceeds one of the
	// format clamps above (frame payload, count field, or variant
	// string). The fixed-width wire fields would silently truncate such
	// a value into a corrupt-but-checksummed frame, so the encoder
	// refuses to write it instead.
	ErrOversizeFrame = errors.New("replaylog: oversize frame")
)

// FrameError describes one dropped frame.
type FrameError struct {
	Offset int64     // byte offset of the frame's sync word in the stream
	Type   FrameType // claimed frame type (FrameInvalid when unreadable)
	Core   int       // owning core for inputs/stream/interval frames; -1 unknown
	Seq    uint64    // interval sequence number (interval frames; meaningful with Core >= 0)
	Reason string
}

func (e FrameError) String() string {
	loc := ""
	if e.Core >= 0 {
		loc = fmt.Sprintf(" core %d", e.Core)
		if e.Type == FrameInterval {
			loc += fmt.Sprintf(" interval %d", e.Seq)
		}
	}
	return fmt.Sprintf("offset %d: %s frame%s: %s", e.Offset, e.Type, loc, e.Reason)
}

// maxReportedFrames caps the FrameError list so a shredded multi-
// megabyte log cannot balloon the report; Dropped keeps the true count.
const maxReportedFrames = 64

// CorruptionReport is the structured outcome of a robust decode: what
// was dropped, skipped, or found missing. The zero value means a clean
// decode.
type CorruptionReport struct {
	Version int // format version that was decoded (1, 2 or 3)

	// Frames lists dropped frames (capped at maxReportedFrames);
	// Dropped is the uncapped count.
	Frames  []FrameError
	Dropped int

	// DupFrames counts duplicate or out-of-order interval frames that
	// were discarded (the surviving copy is intact).
	DupFrames int

	// BytesSkipped counts bytes the resync scan had to discard.
	BytesSkipped int64

	// MissingIntervals counts intervals a stream frame declared but
	// the decoder never recovered.
	MissingIntervals int

	// Truncated is set when the stream ended mid-frame, the end frame
	// was missing, or (v1) the stream ended mid-structure.
	Truncated bool

	// HeaderLost is set when no header frame survived; Cores/Variant/
	// Patched on the returned Log are then inferred from the frames
	// that did.
	HeaderLost bool
}

// note records a dropped frame.
func (r *CorruptionReport) note(e FrameError) {
	r.Dropped++
	if len(r.Frames) < maxReportedFrames {
		r.Frames = append(r.Frames, e)
	}
}

// Clean reports whether the decode recovered everything.
func (r *CorruptionReport) Clean() bool {
	return r == nil || (r.Dropped == 0 && r.DupFrames == 0 && r.BytesSkipped == 0 &&
		r.MissingIntervals == 0 && !r.Truncated && !r.HeaderLost)
}

// Err returns nil for a clean report, or a typed error (ErrCorruptFrame
// or ErrTruncated, matchable with errors.Is) summarizing the damage.
func (r *CorruptionReport) Err() error {
	if r.Clean() {
		return nil
	}
	if r.Dropped > 0 || r.DupFrames > 0 || r.BytesSkipped > 0 || r.HeaderLost {
		return fmt.Errorf("%w: %s", ErrCorruptFrame, r.oneLine())
	}
	return fmt.Errorf("%w: %s", ErrTruncated, r.oneLine())
}

func (r *CorruptionReport) oneLine() string {
	var parts []string
	if r.Dropped > 0 {
		parts = append(parts, fmt.Sprintf("%d frame(s) dropped", r.Dropped))
	}
	if r.DupFrames > 0 {
		parts = append(parts, fmt.Sprintf("%d duplicate frame(s)", r.DupFrames))
	}
	if r.BytesSkipped > 0 {
		parts = append(parts, fmt.Sprintf("%d byte(s) skipped", r.BytesSkipped))
	}
	if r.MissingIntervals > 0 {
		parts = append(parts, fmt.Sprintf("%d interval(s) missing", r.MissingIntervals))
	}
	if r.HeaderLost {
		parts = append(parts, "header lost")
	}
	if r.Truncated {
		parts = append(parts, "truncated")
	}
	return strings.Join(parts, ", ")
}

// Summary renders the report as a multi-line human-readable block
// (what rrlog prints on a bad log).
func (r *CorruptionReport) Summary() string {
	if r.Clean() {
		return "log is clean: no corruption detected"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "log corruption detected (format v%d): %s\n", r.Version, r.oneLine())
	for _, f := range r.Frames {
		fmt.Fprintf(&b, "  dropped %s\n", f)
	}
	if r.Dropped > len(r.Frames) {
		fmt.Fprintf(&b, "  ... and %d more dropped frame(s)\n", r.Dropped-len(r.Frames))
	}
	if r.Truncated {
		b.WriteString("  stream truncated before the end-of-log frame\n")
	}
	if r.HeaderLost {
		b.WriteString("  header frame lost; cores/variant inferred from surviving frames\n")
	}
	return strings.TrimRight(b.String(), "\n")
}
