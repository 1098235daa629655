package replaylog

import (
	"encoding/binary"
	"fmt"
	"io"
	"runtime"

	"relaxreplay/internal/frame"
)

// Decode reads a log in any format (v1, v2 or v3), failing on any
// corruption or truncation with a typed error (ErrCorruptFrame /
// ErrTruncated). Use DecodeRobust to recover what a damaged stream
// still holds.
func Decode(r io.Reader) (*Log, error) {
	l, rep, err := DecodeRobust(r)
	if err != nil {
		return nil, err
	}
	if err := rep.Err(); err != nil {
		return nil, err
	}
	return l, nil
}

// DecodeRobust reads a possibly-damaged log: it verifies every frame
// checksum, resynchronizes past corruption, drops duplicate frames,
// enforces the format's allocation clamps, and returns whatever
// decoded cleanly together with a CorruptionReport describing what
// did not. The error is non-nil only when nothing was recoverable
// (unreadable source, bad magic, unknown version).
func DecodeRobust(r io.Reader) (*Log, *CorruptionReport, error) {
	return decodeReader(r, 1)
}

// DecodeParallel is DecodeRobust with the v3 per-core decode fanned
// out across GOMAXPROCS goroutines: after one sequential scan pass
// partitions the frames, each core's group frames decompress and
// decode concurrently, and the merge is deterministic — the returned
// log and report are identical to DecodeRobust's on the same bytes.
// v1/v2 streams have no per-core partitioning and decode sequentially.
func DecodeParallel(r io.Reader) (*Log, *CorruptionReport, error) {
	return decodeReader(r, runtime.GOMAXPROCS(0))
}

func decodeReader(r io.Reader, workers int) (*Log, *CorruptionReport, error) {
	data, err := io.ReadAll(r)
	if err != nil && len(data) == 0 {
		return nil, nil, err
	}
	// A short read behind us is damage in front of us: decode what
	// arrived; the report will show the loss.
	if len(data) < preambleLen {
		return nil, nil, fmt.Errorf("%w: %d-byte stream (no header)", ErrTruncated, len(data))
	}
	if [4]byte(data[:4]) != magic {
		return nil, nil, fmt.Errorf("replaylog: bad magic %q", data[:4])
	}
	switch version := binary.LittleEndian.Uint16(data[4:6]); version {
	case formatV1:
		return decodeV1(data[preambleLen:])
	case formatV2, formatV3:
		return decodeFramed(data[preambleLen:], int(version), workers)
	default:
		return nil, nil, fmt.Errorf("replaylog: unsupported version %d", version)
	}
}

// acceptV2 and acceptV3 are the frame types each format's scan trusts;
// any other type byte after a sync word is damage.
func acceptV2(t uint8) bool { return FrameType(t) >= FrameHeader && FrameType(t) <= FrameEnd }
func acceptV3(t uint8) bool { return FrameType(t) >= FrameHeader && FrameType(t) <= FrameProvenance }

// coreStream is one core's stream during a v2/v3 decode.
type coreStream struct {
	declared int // interval count from the stream frame; -1 unknown
	// v2: the last interval accepted, to drop duplicates.
	lastSeq uint64
	hasSeq  bool
	// v3: CRC-verified group frames awaiting body decode.
	refs []groupRef
}

// framedDecoder is one v2 or v3 decode in progress. The two formats
// share everything but the interval frames: v2 carries one interval
// per frame and decodes it in the scan, v3 carries groups the scan
// only partitions by core (decodeGroups decodes them afterwards,
// possibly in parallel).
type framedDecoder struct {
	l          *Log
	rep        *CorruptionReport
	headerSeen bool
	streams    []coreStream // parallel to l.Streams
	byCore     map[int]int  // core -> index into streams
	inputSeen  map[int]bool
}

// stream returns core's stream, creating it (in first-appearance
// order) on first sight.
func (d *framedDecoder) stream(core int) (int, *coreStream) {
	i, ok := d.byCore[core]
	if !ok {
		i = len(d.streams)
		d.byCore[core] = i
		d.streams = append(d.streams, coreStream{declared: -1})
		d.l.Streams = append(d.l.Streams, CoreLog{Core: core})
	}
	return i, &d.streams[i]
}

// drop reports a frame lost to a checksum or structural failure.
func (d *framedDecoder) drop(f frame.Frame, reason string) {
	fe := FrameError{Offset: int64(f.Off + preambleLen), Type: FrameType(f.Type), Core: -1, Reason: reason}
	nameFrame(&fe, fe.Type, f.Payload)
	d.rep.note(fe)
}

// decodeFramed decodes a v2 or v3 frame sequence; data starts right
// after the preamble. It resyncs past corruption and drops only what
// fails its CRC or structural checks. The result is identical for
// every workers value: the scan is sequential, each core's v3 groups
// decode in file order, and the merge follows first-appearance core
// order with frame errors re-sorted by file offset.
func decodeFramed(data []byte, version, workers int) (*Log, *CorruptionReport, error) {
	d := framedDecoder{
		l:         &Log{},
		rep:       &CorruptionReport{Version: version},
		byCore:    map[int]int{},
		inputSeen: map[int]bool{},
	}
	l, rep := d.l, d.rep
	accept := acceptV2
	if version == formatV3 {
		accept = acceptV3
	}
	s := frame.NewScanner(data, MaxFrameLen, accept)
	encountered, sawEnd := 0, false
	endCount := uint32(0)
	for {
		f, ok := s.Next()
		if !ok {
			break
		}
		encountered++
		if f.BadCRC {
			d.drop(f, "crc mismatch")
			continue
		}
		br := &frame.Cursor{Data: f.Payload}
		switch FrameType(f.Type) {
		case FrameHeader:
			cores := br.U32()
			patched := br.U8()
			ninputs := br.U32()
			vlen := br.U16()
			switch {
			case br.Short:
				d.drop(f, "short header")
			case cores > MaxCores:
				d.drop(f, fmt.Sprintf("core count %d exceeds limit %d", cores, MaxCores))
			case ninputs > MaxCores:
				d.drop(f, fmt.Sprintf("input-stream count %d exceeds limit %d", ninputs, MaxCores))
			case vlen > MaxVariantLen || int(vlen) > br.Remaining():
				d.drop(f, fmt.Sprintf("variant length %d exceeds frame", vlen))
			case d.headerSeen:
				rep.DupFrames++
			default:
				d.headerSeen = true
				l.Cores = int(cores)
				l.Patched = patched != 0
				l.Variant = string(br.Take(int(vlen)))
				if ninputs > 0 {
					l.Inputs = make([][]uint64, ninputs)
				}
			}
		case FrameInputs:
			core := br.U32()
			count := br.U32()
			switch {
			case br.Short:
				d.drop(f, "short inputs frame")
			case core >= MaxCores:
				d.drop(f, fmt.Sprintf("core %d exceeds limit", core))
			case int(count)*8 > br.Remaining():
				d.drop(f, fmt.Sprintf("input count %d exceeds frame", count))
			case d.inputSeen[int(core)]:
				rep.DupFrames++
			default:
				d.inputSeen[int(core)] = true
				for int(core) >= len(l.Inputs) {
					l.Inputs = append(l.Inputs, nil)
				}
				var in []uint64
				for j := uint32(0); j < count; j++ {
					in = append(in, br.U64())
				}
				l.Inputs[core] = in
			}
		case FrameStream:
			core := br.U32()
			nivs := br.U32()
			switch {
			case br.Short:
				d.drop(f, "short stream frame")
			case core >= MaxCores:
				d.drop(f, fmt.Sprintf("core %d exceeds limit", core))
			case nivs > MaxIntervalsPerCore:
				d.drop(f, fmt.Sprintf("interval count %d exceeds limit", nivs))
			default:
				if i, ok := d.byCore[int(core)]; ok && d.streams[i].declared >= 0 {
					rep.DupFrames++
					break
				}
				_, st := d.stream(int(core))
				st.declared = int(nivs)
			}
		case FrameInterval:
			if version == formatV3 {
				// v3 streams carry group frames; a bare v2 interval frame
				// here is stray bytes from another format.
				d.drop(f, "v2 interval frame in v3 stream")
				break
			}
			d.interval(f, br)
		case FrameIvGroup:
			flags := br.U8()
			core := br.Uvarint()
			switch {
			case br.Short:
				d.drop(f, "short group frame")
			case core >= MaxCores:
				d.drop(f, fmt.Sprintf("core %d exceeds limit", core))
			case flags&^flagFlate != 0:
				d.drop(f, fmt.Sprintf("unknown group flags %#x", flags))
			default:
				_, st := d.stream(int(core))
				st.refs = append(st.refs, groupRef{
					off:   int64(f.Off + preambleLen),
					flags: flags,
					body:  br.Rest(),
				})
			}
		case FrameIndex:
			// Advisory footer for OpenIndexed; the linear decoder has
			// no use for it beyond counting the frame.
		case FrameProvenance:
			ver := br.U8()
			switch {
			case br.Short:
				d.drop(f, "short provenance frame")
			case ver != provVersion:
				// A future payload revision: already counted as an
				// encountered frame, skipped without a report so the
				// decode stays clean.
			default:
				core, recs, reason := decodeProvenanceBody(br)
				if reason != "" {
					d.drop(f, reason)
				} else {
					attachProvenance(l, core, recs)
				}
			}
		case FrameEnd:
			n := br.U32() // v3's trailing index offset is OpenIndexed's
			switch {
			case br.Short:
				d.drop(f, "short end frame")
			case sawEnd:
				rep.DupFrames++
			default:
				sawEnd = true
				endCount = n
			}
		}
	}

	rep.BytesSkipped = s.Skipped()
	if !sawEnd {
		rep.Truncated = true
	} else {
		// encountered counts the end frame itself; endCount does not.
		if encountered-1 < int(endCount) {
			rep.Truncated = true // whole frames vanished without a trace
		}
		rep.BytesSkipped += int64(s.Tail())
	}
	if version == formatV3 {
		d.decodeGroups(workers)
	}
	for i := range d.streams {
		if st := &d.streams[i]; st.declared >= 0 {
			if got := len(l.Streams[i].Intervals); got < st.declared {
				rep.MissingIntervals += st.declared - got
			}
		}
	}
	if !d.headerSeen {
		rep.HeaderLost = true
		inferHeader(l)
	}
	return l, rep, nil
}

// interval decodes one v2 interval frame.
func (d *framedDecoder) interval(f frame.Frame, br *frame.Cursor) {
	core := br.U32()
	seq := br.U64()
	ts := br.U64()
	nent := br.U32()
	npred := br.U32()
	if br.Short || core >= MaxCores ||
		nent > MaxEntriesPerInterval || int(nent) > br.Remaining() ||
		npred > MaxPredsPerInterval {
		d.drop(f, "corrupt interval frame header")
		return
	}
	iv := Interval{Seq: seq, CISN: uint16(seq), Timestamp: ts}
	ok := true
	for j := uint32(0); j < nent && ok; j++ {
		var e Entry
		e, ok = readEntry(br)
		if ok {
			iv.Entries = append(iv.Entries, e)
		}
	}
	if !ok || int(npred)*12 > br.Remaining() {
		d.drop(f, "corrupt interval entries")
		return
	}
	for j := uint32(0); j < npred; j++ {
		iv.Preds = append(iv.Preds, Pred{Core: int(br.U32()), Seq: br.U64()})
	}
	if br.Remaining() != 0 {
		d.drop(f, fmt.Sprintf("%d trailing bytes in interval frame", br.Remaining()))
		return
	}
	i, st := d.stream(int(core))
	if st.hasSeq && seq <= st.lastSeq {
		d.rep.DupFrames++
		return
	}
	st.hasSeq, st.lastSeq = true, seq
	d.l.Streams[i].Intervals = append(d.l.Streams[i].Intervals, iv)
}

// readEntry decodes one entry in the fixed-width encoding v1 and v2
// share; the bool is false on a short or unknown-type read.
func readEntry(br *frame.Cursor) (Entry, bool) {
	var e Entry
	e.Type = EntryType(br.U8())
	switch e.Type {
	case InorderBlock:
		e.Size = br.U32()
	case ReorderedLoad:
		e.Value = br.U64()
	case ReorderedStore, PatchedStore:
		e.Addr = br.U64()
		e.Value = br.U64()
		e.Offset = br.U16()
	case ReorderedAtomic:
		e.Addr = br.U64()
		e.Value = br.U64()
		e.StoreValue = br.U64()
		e.Offset = br.U16()
		e.DidWrite = br.U8() != 0
	case Dummy:
	default:
		return e, false
	}
	return e, !br.Short
}

// nameFrame extracts best-effort identity (core, interval seq) from a
// frame payload whose checksum failed or whose body did not parse, so
// the report can say *which* frame was lost.
func nameFrame(fe *FrameError, typ FrameType, body []byte) {
	br := &frame.Cursor{Data: body}
	switch typ {
	case FrameInputs, FrameStream, FrameInterval:
		core := br.U32()
		if !br.Short && core < MaxCores {
			fe.Core = int(core)
		}
		if typ == FrameInterval {
			seq := br.U64()
			if !br.Short {
				fe.Seq = seq
			}
		}
	case FrameIvGroup, FrameProvenance:
		br.U8() // group flags, or provenance version
		core := br.Uvarint()
		if !br.Short && core < MaxCores {
			fe.Core = int(core)
		}
	}
}

// inferHeader reconstructs the header-carried fields of a log whose
// header frame was lost, from the frames that survived.
func inferHeader(l *Log) {
	maxCore := -1
	for _, s := range l.Streams {
		if s.Core > maxCore {
			maxCore = s.Core
		}
	}
	for c := range l.Inputs {
		if c > maxCore {
			maxCore = c
		}
	}
	l.Cores = maxCore + 1
	for _, s := range l.Streams {
		for _, iv := range s.Intervals {
			for _, e := range iv.Entries {
				switch e.Type {
				case PatchedStore, Dummy:
					l.Patched = true
					return
				case ReorderedStore, ReorderedAtomic:
					return // definitely unpatched
				}
			}
		}
	}
}

// decodeV1 parses the pre-framing format, committing each fully-
// parsed structure so a torn v1 stream still yields its intact
// prefix. Every count field is clamped before use.
func decodeV1(data []byte) (*Log, *CorruptionReport, error) {
	rep := &CorruptionReport{Version: 1}
	l := &Log{}
	br := &frame.Cursor{Data: data}
	fail := func(reason string) (*Log, *CorruptionReport, error) {
		if br.Short {
			rep.Truncated = true
		} else {
			rep.note(FrameError{Offset: int64(preambleLen + br.Pos), Type: FrameInvalid, Core: -1, Reason: reason})
		}
		return l, rep, nil
	}

	cores := br.U32()
	patched := br.U8()
	vlen := br.U16()
	if br.Short {
		return fail("short header")
	}
	if cores > MaxCores {
		return fail(fmt.Sprintf("core count %d exceeds limit %d", cores, MaxCores))
	}
	if vlen > MaxVariantLen {
		return fail(fmt.Sprintf("variant length %d exceeds limit %d", vlen, MaxVariantLen))
	}
	vb := br.Take(int(vlen))
	if br.Short {
		return fail("short variant")
	}
	l.Cores = int(cores)
	l.Patched = patched != 0
	l.Variant = string(vb)

	nin := br.U32()
	if br.Short {
		return fail("missing input table")
	}
	if nin > MaxCores {
		return fail(fmt.Sprintf("input-stream count %d exceeds limit %d", nin, MaxCores))
	}
	for i := uint32(0); i < nin; i++ {
		n := br.U32()
		if br.Short {
			return fail("short input stream")
		}
		if n > MaxInputLen {
			return fail(fmt.Sprintf("input count %d exceeds limit %d", n, MaxInputLen))
		}
		if int(n)*8 > br.Remaining() {
			br.Short = true
			return fail("short input stream")
		}
		var in []uint64
		for j := uint32(0); j < n; j++ {
			in = append(in, br.U64())
		}
		if br.Short {
			return fail("short input stream")
		}
		l.Inputs = append(l.Inputs, in)
	}

	nstreams := br.U32()
	if br.Short {
		return fail("missing stream table")
	}
	if nstreams > MaxCores {
		return fail(fmt.Sprintf("stream count %d exceeds limit %d", nstreams, MaxCores))
	}
	for si := uint32(0); si < nstreams; si++ {
		core := br.U32()
		nivs := br.U32()
		if br.Short {
			return fail("short stream header")
		}
		if nivs > MaxIntervalsPerCore {
			return fail(fmt.Sprintf("interval count %d exceeds limit %d", nivs, MaxIntervalsPerCore))
		}
		if int(nivs)*24 > br.Remaining() { // 24 B = minimum encoded interval
			br.Short = true
			return fail("short stream")
		}
		s := CoreLog{Core: int(core)}
		// Commit the stream now so intact intervals survive a torn tail.
		l.Streams = append(l.Streams, s)
		cur := &l.Streams[len(l.Streams)-1]
		for i := uint32(0); i < nivs; i++ {
			var iv Interval
			iv.Seq = br.U64()
			iv.Timestamp = br.U64()
			nent := br.U32()
			npred := br.U32()
			if br.Short {
				return fail("short interval header")
			}
			if nent > MaxEntriesPerInterval {
				return fail(fmt.Sprintf("entry count %d exceeds limit %d", nent, MaxEntriesPerInterval))
			}
			if npred > MaxPredsPerInterval {
				return fail(fmt.Sprintf("pred count %d exceeds limit %d", npred, MaxPredsPerInterval))
			}
			if int(nent) > br.Remaining() || int(npred)*12 > br.Remaining() {
				br.Short = true
				return fail("short interval")
			}
			iv.CISN = uint16(iv.Seq)
			for j := uint32(0); j < nent; j++ {
				e, ok := readEntry(br)
				if !ok {
					if br.Short {
						return fail("short entry")
					}
					return fail(fmt.Sprintf("unknown entry type %d", e.Type))
				}
				iv.Entries = append(iv.Entries, e)
			}
			for j := uint32(0); j < npred; j++ {
				iv.Preds = append(iv.Preds, Pred{Core: int(br.U32()), Seq: br.U64()})
			}
			if br.Short {
				return fail("short preds")
			}
			cur.Intervals = append(cur.Intervals, iv)
		}
	}
	return l, rep, nil
}
