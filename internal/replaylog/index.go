package replaylog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"relaxreplay/internal/frame"
)

// Indexed access to v3 logs: OpenIndexed reads only the end frame and
// the index footer (a few KiB), after which DecodeInterval seeks one
// group frame per lookup — O(log n) in the span table plus one group
// decode — instead of scanning the whole file. The index is advisory:
// if the footer, the end frame, or a sought group frame is damaged, or
// the file predates v3, the reader degrades to one full DecodeParallel
// pass and serves every lookup from memory.

// IndexSpan locates one group frame: the closed interval-sequence
// range [FirstSeq, LastSeq] that core's frame covers and where its
// bytes live in the file.
type IndexSpan struct {
	Core     int
	FirstSeq uint64
	LastSeq  uint64
	Offset   int64 // byte offset of the frame's sync word in the file
	Length   int   // whole-frame length including sync/header/crc
}

// ErrNoInterval reports a (core, seq) pair the log does not contain.
var ErrNoInterval = errors.New("replaylog: no such interval")

// IndexedLog is a random-access view of an encoded log. Safe for
// concurrent use.
type IndexedLog struct {
	r    io.ReaderAt
	size int64

	spans   map[int][]IndexSpan // per-core, sorted by FirstSeq; nil in fallback mode
	reason  string              // why the index path is unavailable ("" when indexed)
	spanCnt int

	// Fallback: one full robust decode, lazily, serving every lookup
	// (and any lookup the indexed path could not complete).
	fullOnce sync.Once
	full     *Log
	fullRep  *CorruptionReport
	fullErr  error
}

// OpenIndexed prepares random access over an encoded log of the given
// size. It reads the preamble and, for v3 files, the end frame and
// index footer; interval data is not touched until DecodeInterval.
// Damage to the footer is not an error — the reader just loses the
// seek path (see Indexed) and falls back to a linear scan.
func OpenIndexed(r io.ReaderAt, size int64) (*IndexedLog, error) {
	ix := &IndexedLog{r: r, size: size}
	var pre [preambleLen]byte
	if _, err := r.ReadAt(pre[:], 0); err != nil {
		return nil, fmt.Errorf("replaylog: reading preamble: %w", err)
	}
	if [4]byte(pre[:4]) != magic {
		return nil, fmt.Errorf("replaylog: bad magic %q", pre[:4])
	}
	switch version := binary.LittleEndian.Uint16(pre[4:6]); version {
	case formatV1, formatV2:
		ix.reason = fmt.Sprintf("format v%d has no index", version)
		return ix, nil
	case formatV3:
	default:
		return nil, fmt.Errorf("replaylog: unsupported version %d", version)
	}
	if reason := ix.loadIndex(); reason != "" {
		ix.reason = reason
		ix.spans = nil
	}
	return ix, nil
}

// loadIndex parses the end frame and index footer, returning a
// non-empty reason on any damage (which triggers fallback mode).
func (ix *IndexedLog) loadIndex() string {
	if ix.size < preambleLen+endFrameLen {
		return "file too short for an end frame"
	}
	var tail [endFrameLen]byte
	if _, err := ix.r.ReadAt(tail[:], ix.size-endFrameLen); err != nil {
		return "end frame unreadable"
	}
	end, reason := frameAt(tail[:], FrameEnd)
	if reason != "" {
		return reason
	}
	if len(end) != endFrameLen-frame.Overhead {
		return "end frame damaged"
	}
	indexOff := int64(binary.LittleEndian.Uint64(end[4:]))
	// The index frame sits between indexOff and the end frame.
	if indexOff < preambleLen || indexOff > ix.size-endFrameLen-frame.Overhead {
		return "index offset out of range"
	}
	n := min(ix.size-endFrameLen-indexOff, frame.Overhead+MaxFrameLen)
	buf := make([]byte, n)
	if _, err := ix.r.ReadAt(buf, indexOff); err != nil {
		return "index frame unreadable"
	}
	index, reason := frameAt(buf, FrameIndex)
	if reason != "" {
		return reason
	}

	br := &frame.Cursor{Data: index}
	nspans := br.Uvarint()
	if br.Short || nspans > MaxIndexSpans {
		return "bad span count"
	}
	spans := map[int][]IndexSpan{}
	total := 0
	for i := uint64(0); i < nspans; i++ {
		core := br.Uvarint()
		firstSeq := br.Uvarint()
		seqRange := br.Uvarint()
		off := br.Uvarint()
		flen := br.Uvarint()
		if br.Short {
			return "short span table"
		}
		sp := IndexSpan{
			Core:     int(core),
			FirstSeq: firstSeq,
			LastSeq:  firstSeq + seqRange,
			Offset:   int64(off),
			Length:   int(flen),
		}
		// Offset >= preambleLen, so size-Offset cannot overflow the
		// way Offset+Length can.
		if core >= MaxCores || sp.LastSeq < sp.FirstSeq ||
			sp.Offset < preambleLen || sp.Length < frame.Overhead ||
			int64(sp.Length) > ix.size-sp.Offset {
			return "span out of range"
		}
		prev := spans[sp.Core]
		if len(prev) > 0 && sp.FirstSeq <= prev[len(prev)-1].LastSeq {
			return "span table out of order"
		}
		spans[sp.Core] = append(prev, sp)
		total++
	}
	if br.Remaining() != 0 {
		return "trailing bytes in span table"
	}
	ix.spans = spans
	ix.spanCnt = total
	return ""
}

// frameAt checks that b opens with an intact frame of type t and
// returns its payload, or a reason why not.
func frameAt(b []byte, t FrameType) ([]byte, string) {
	s := frame.NewScanner(b, MaxFrameLen, nil)
	f, ok := s.Next()
	switch {
	case !ok || f.Off != 0 || FrameType(f.Type) != t:
		return nil, t.String() + " frame damaged"
	case f.BadCRC:
		return nil, t.String() + " frame crc mismatch"
	}
	return f.Payload, ""
}

// Indexed reports whether the seek path is live; when false, Reason
// says why and every lookup is served by one cached linear scan.
func (ix *IndexedLog) Indexed() bool { return ix.spans != nil }

// Reason explains a false Indexed result.
func (ix *IndexedLog) Reason() string { return ix.reason }

// Spans returns the number of group-frame spans in the index (0 in
// fallback mode).
func (ix *IndexedLog) Spans() int { return ix.spanCnt }

// DecodeInterval returns core's interval with the given sequence
// number, reading and decoding only the one group frame that covers
// it when the index is live. Damage discovered on the seek path
// (a group frame that no longer matches its checksum, say) silently
// degrades that lookup to the linear-scan fallback, which salvages
// like DecodeParallel. Returns ErrNoInterval when the log has no such
// interval. The returned Interval shares no state with the reader on
// the indexed path; on the fallback path it aliases the cached log.
func (ix *IndexedLog) DecodeInterval(core int, seq uint64) (*Interval, error) {
	if ix.spans != nil {
		spans := ix.spans[core]
		i := sort.Search(len(spans), func(i int) bool { return spans[i].LastSeq >= seq })
		if i >= len(spans) || spans[i].FirstSeq > seq {
			// A live index is a complete map of the encoder's output:
			// the interval is absent, not unlocatable.
			return nil, fmt.Errorf("%w: core %d seq %d", ErrNoInterval, core, seq)
		}
		if iv, ok := ix.readGroupInterval(spans[i], seq); ok {
			if iv == nil {
				return nil, fmt.Errorf("%w: core %d seq %d", ErrNoInterval, core, seq)
			}
			return iv, nil
		}
		// The span pointed at damaged bytes: degrade gracefully.
	}
	return ix.fallbackInterval(core, seq)
}

// readGroupInterval fetches one group frame and extracts the interval
// with the given seq. ok=false means the frame was damaged and the
// caller should fall back; (nil, true) means the frame is intact but
// holds no such seq.
func (ix *IndexedLog) readGroupInterval(sp IndexSpan, seq uint64) (*Interval, bool) {
	buf := make([]byte, sp.Length)
	if _, err := ix.r.ReadAt(buf, sp.Offset); err != nil {
		return nil, false
	}
	body, reason := frameAt(buf, FrameIvGroup)
	if reason != "" || len(body) != sp.Length-frame.Overhead {
		return nil, false
	}
	br := &frame.Cursor{Data: body}
	flags := br.U8()
	core := br.Uvarint()
	if br.Short || int(core) != sp.Core || flags&^flagFlate != 0 {
		return nil, false
	}
	ivs, reason := decodeGroup(flags, br.Rest())
	if reason != "" {
		return nil, false
	}
	j := sort.Search(len(ivs), func(i int) bool { return ivs[i].Seq >= seq })
	if j >= len(ivs) || ivs[j].Seq != seq {
		return nil, true
	}
	return &ivs[j], true
}

// fallbackInterval serves a lookup from one cached full decode.
func (ix *IndexedLog) fallbackInterval(core int, seq uint64) (*Interval, error) {
	l, _, err := ix.fullDecode()
	if err != nil {
		return nil, err
	}
	for si := range l.Streams {
		s := &l.Streams[si]
		if s.Core != core {
			continue
		}
		j := sort.Search(len(s.Intervals), func(i int) bool { return s.Intervals[i].Seq >= seq })
		if j < len(s.Intervals) && s.Intervals[j].Seq == seq {
			return &s.Intervals[j], nil
		}
	}
	return nil, fmt.Errorf("%w: core %d seq %d", ErrNoInterval, core, seq)
}

// fullDecode runs (once) the linear robust decode behind the fallback
// path and returns the cached result thereafter.
func (ix *IndexedLog) fullDecode() (*Log, *CorruptionReport, error) {
	ix.fullOnce.Do(func() {
		ix.full, ix.fullRep, ix.fullErr = DecodeParallel(io.NewSectionReader(ix.r, 0, ix.size))
	})
	return ix.full, ix.fullRep, ix.fullErr
}
