package replaylog

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"relaxreplay/internal/faultinject"
	"relaxreplay/internal/frame"
)

// Format v3 encoder and decoder (see format.go for the wire layout).
// v3 trades the v2 one-interval-per-frame layout for delta/varint
// compressed group frames plus a seekable index footer: smaller files,
// O(log n) interval seeks via OpenIndexed, and a per-core decode that
// parallelizes. v3 is the format every writer outside this package
// produces.

// DefaultGroupSize is the number of intervals per v3 group frame. The
// group is the unit of loss under corruption and the unit of work for
// an indexed seek, so the size balances compression context against
// salvage granularity.
const DefaultGroupSize = 64

// flagFlate marks a group frame whose body went through the flate
// stage. Remaining flag bits are reserved and must be zero.
const flagFlate = 1 << 0

// v3Options are the encoder settings the package's tests vary. The
// zero value is the encoding every writer produces: DefaultGroupSize
// intervals per group, flate enabled.
type v3Options struct {
	// groupSize is the number of consecutive intervals per group
	// frame; 0 means DefaultGroupSize. Values above MaxGroupIntervals
	// are clamped.
	groupSize int
	// noCompress skips the per-frame flate stage; bodies are written
	// delta/varint-encoded but raw.
	noCompress bool
}

// ErrUnordered reports a log that v3 cannot represent: group delta
// encoding requires each core's intervals to have strictly increasing
// Seq and non-decreasing Timestamp (which Validate already demands of
// well-formed logs).
var ErrUnordered = errors.New("replaylog: v3 requires per-core ordered intervals")

// errV3EntryType is pre-declared so the hotpath encoder can fail
// without calling fmt.
var errV3EntryType = errors.New("replaylog: cannot encode entry type in v3 group")

// EncodeV3 writes the log to w in format v3.
func EncodeV3(w io.Writer, l *Log) error { return EncodeV3With(w, l, nil) }

// EncodeV3With writes the log to w in format v3. The output is
// deterministic: the same log always produces the same bytes, whatever
// GOMAXPROCS is (the flate stage runs on up to GOMAXPROCS goroutines). Returns ErrUnordered if any core's intervals
// are not strictly increasing in Seq or decrease in Timestamp, and
// ErrOversizeFrame under the same count clamps as Encode.
//
// inj, when its log.dupframe point is armed, makes the encoder write
// one group frame twice: the duplicated-frame fault the robust decoder
// must absorb. A nil injector, or one without that point, changes no
// byte.
func EncodeV3With(w io.Writer, l *Log, inj *faultinject.Injector) error {
	return encodeV3(w, l, v3Options{}, inj, runtime.GOMAXPROCS(0))
}

// encodeV3 is EncodeV3With with the flate stage spread over at most
// min(workers, streams) goroutines. The bytes, the index spans, when
// log.dupframe fires and the error returned do not depend on workers:
// group bodies are built, and frames written, serially in file order;
// only flate runs on the workers.
func encodeV3(w io.Writer, l *Log, opts v3Options, inj *faultinject.Injector, workers int) error {
	if err := checkEncodeCounts(l); err != nil {
		return err
	}
	for si := range l.Streams {
		s := &l.Streams[si]
		for i := 1; i < len(s.Intervals); i++ {
			if s.Intervals[i].Seq <= s.Intervals[i-1].Seq {
				return fmt.Errorf("%w: core %d seq %d after %d", ErrUnordered, s.Core, s.Intervals[i].Seq, s.Intervals[i-1].Seq)
			}
			if s.Intervals[i].Timestamp < s.Intervals[i-1].Timestamp {
				return fmt.Errorf("%w: core %d timestamp %d after %d", ErrUnordered, s.Core, s.Intervals[i].Timestamp, s.Intervals[i-1].Timestamp)
			}
		}
	}
	gs := opts.groupSize
	if gs <= 0 {
		gs = DefaultGroupSize
	}
	if gs > MaxGroupIntervals {
		gs = MaxGroupIntervals
	}

	enc := newEncoder(w, formatV3)
	defer enc.release()
	enc.headerFrames(l)

	failStream, bodyErr := enc.groupBodies(l, gs)
	if !opts.noCompress {
		enc.compressGroups(min(workers, len(l.Streams)))
	}

	groups := uint64(0)
	for si := range l.Streams {
		groups += uint64((len(l.Streams[si].Intervals) + gs - 1) / gs)
	}
	inj.ArmWithin(faultinject.LogDupFrame, groups)

	spans := enc.spans[:0]
	k := 0
	for si := range l.Streams {
		s := &l.Streams[si]
		enc.streamFrame(s)
		for ; k < len(enc.groups) && enc.groups[k].stream == si; k++ {
			g := &enc.groups[k]
			body := enc.groupFrame(s.Core, g)
			off := preambleLen + enc.off
			enc.frame(FrameIvGroup, body)
			spans = append(spans, IndexSpan{
				Core:     s.Core,
				FirstSeq: s.Intervals[g.lo].Seq,
				LastSeq:  s.Intervals[g.hi-1].Seq,
				Offset:   off,
				Length:   frame.Overhead + len(body),
			})
			if inj.Fire(faultinject.LogDupFrame) {
				enc.frame(FrameIvGroup, body)
			}
		}
		if bodyErr != nil && si == failStream {
			return bodyErr
		}
	}

	// Provenance sideband, when present: after the interval groups so
	// the index spans above are unaffected, before the index so a
	// tail-truncated file loses the advisory frames first.
	if err := enc.provenanceFrames(l); err != nil {
		return err
	}

	if len(spans) > MaxIndexSpans {
		return fmt.Errorf("%w: %d index spans (limit %d)", ErrOversizeFrame, len(spans), MaxIndexSpans)
	}
	indexOff := preambleLen + enc.off
	p := &enc.p
	p.Reset()
	p.Uvarint(uint64(len(spans)))
	for _, sp := range spans {
		p.Uvarint(uint64(sp.Core))
		p.Uvarint(sp.FirstSeq)
		p.Uvarint(sp.LastSeq - sp.FirstSeq)
		p.Uvarint(uint64(sp.Offset))
		p.Uvarint(uint64(sp.Length))
	}
	enc.frame(FrameIndex, p.Bytes())
	enc.spans = spans

	p.Reset()
	p.U32(enc.count)
	p.U64(uint64(indexOff))
	enc.frame(FrameEnd, p.Bytes())
	return enc.finish()
}

// Wire geometry shared by the encoder, the linear decoder, and the
// indexed reader.
const (
	preambleLen = 6 // magic + version
	// endFrameLen is the total size of a v3 end frame: overhead plus
	// the frames u32 and index-offset u64. OpenIndexed reads exactly
	// this many bytes off the file tail.
	endFrameLen = frame.Overhead + 12
)

// groupJob is one group frame of an encode: its intervals, where its
// delta/varint body sits in encoder.bodies and, once the flate stage
// has run, where its compressed body sits in a compressor's output.
type groupJob struct {
	stream, lo, hi int // l.Streams[stream].Intervals[lo:hi]
	start, end     int // raw body: encoder.bodies[start:end]
	comp           int // compressor index, or -1: the body stays raw
	cstart, cend   int // compressed body: comps[comp].out[cstart:cend]
}

// groupBodies delta/varint-encodes every group of gs intervals into
// enc.bodies and lists it in enc.groups, in file order. It stops at
// the first group that cannot be encoded and returns that group's
// stream index and error.
func (enc *encoder) groupBodies(l *Log, gs int) (int, error) {
	enc.bodies.Reset()
	enc.groups = enc.groups[:0]
	for si := range l.Streams {
		ivs := l.Streams[si].Intervals
		for i := 0; i < len(ivs); i += gs {
			j := min(i+gs, len(ivs))
			start := len(enc.bodies.Bytes())
			if err := enc.groupBody(ivs[i:j]); err != nil {
				return si, err
			}
			enc.groups = append(enc.groups, groupJob{stream: si, lo: i, hi: j, start: start, end: len(enc.bodies.Bytes()), comp: -1})
		}
	}
	return 0, nil
}

// compressGroups runs the flate stage over every listed group, on at
// most workers goroutines, the caller's among them. Groups are handed
// out one at a time, so one long stream cannot leave a worker idle.
// Each group is its own flate stream, so which worker compresses it
// changes none of its bytes.
func (enc *encoder) compressGroups(workers int) {
	if len(enc.groups) == 0 {
		return
	}
	workers = max(1, min(workers, len(enc.groups)))
	for range workers {
		c, _ := compressorPool.Get().(*compressor)
		if c == nil {
			c = &compressor{}
		}
		enc.comps = append(enc.comps, c)
	}
	var next atomic.Int64
	bodies := enc.bodies.Bytes()
	work := func(ci int) {
		c := enc.comps[ci]
		for k := int(next.Add(1) - 1); k < len(enc.groups); k = int(next.Add(1) - 1) {
			c.compress(ci, &enc.groups[k], bodies)
		}
	}
	var wg sync.WaitGroup
	for ci := 1; ci < workers; ci++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(ci)
		}()
	}
	work(0)
	wg.Wait()
}

// groupFrame assembles one FrameIvGroup payload: flags, core, and the
// group's body, in its compressed form when that earned the flag. The
// returned slice is valid until the next call.
func (enc *encoder) groupFrame(core int, g *groupJob) []byte {
	flags := uint8(0)
	body := enc.bodies.Bytes()[g.start:g.end]
	if g.comp >= 0 {
		flags |= flagFlate
		body = enc.comps[g.comp].out.Bytes()[g.cstart:g.cend]
	}
	enc.group.Reset()
	enc.group.U8(flags)
	enc.group.Uvarint(uint64(core))
	enc.group.Raw(body)
	return enc.group.Bytes()
}

// groupBody appends one group of intervals, delta/varint-encoded, to
// enc.bodies. This is the encoder's per-interval path, the v3
// analogue of the v2 frame loop.
//
//rrlint:hotpath
func (enc *encoder) groupBody(group []Interval) error {
	p := &enc.bodies
	p.Uvarint(uint64(len(group)))
	p.Uvarint(group[0].Seq)
	p.Uvarint(group[0].Timestamp)
	prevSeq, prevTs := group[0].Seq, group[0].Timestamp
	prevAddr := uint64(0)
	for i := range group {
		iv := &group[i]
		if i > 0 {
			p.Uvarint(iv.Seq - prevSeq)
			p.Uvarint(iv.Timestamp - prevTs)
			prevSeq, prevTs = iv.Seq, iv.Timestamp
		}
		p.Uvarint(uint64(len(iv.Entries)))
		p.Uvarint(uint64(len(iv.Preds)))
		for j := range iv.Entries {
			e := &iv.Entries[j]
			p.U8(uint8(e.Type))
			switch e.Type {
			case InorderBlock:
				p.Uvarint(uint64(e.Size))
			case ReorderedLoad:
				p.Uvarint(e.Value)
			case ReorderedStore, PatchedStore:
				p.Svarint(int64(e.Addr - prevAddr))
				prevAddr = e.Addr
				p.Uvarint(e.Value)
				p.Uvarint(uint64(e.Offset))
			case ReorderedAtomic:
				p.Svarint(int64(e.Addr - prevAddr))
				prevAddr = e.Addr
				p.Uvarint(e.Value)
				p.Uvarint(e.StoreValue)
				p.Uvarint(uint64(e.Offset))
				w := uint8(0)
				if e.DidWrite {
					w = 1
				}
				p.U8(w)
			case Dummy:
			default:
				return errV3EntryType
			}
		}
		for j := range iv.Preds {
			p.Uvarint(uint64(iv.Preds[j].Core))
			p.Uvarint(iv.Preds[j].Seq)
		}
	}
	return nil
}

// groupRef is one CRC-verified group frame awaiting body decode: the
// scan pass reads only the plaintext flags/core prefix, so the
// (possibly compressed) body can be decoded per core in parallel.
type groupRef struct {
	off   int64 // frame sync-word offset in the file (for error reports)
	flags uint8
	body  []byte // subslice of the input; not yet decompressed
}

// v3coreResult is one core's decode output, assembled independently of
// goroutine scheduling so the merge is deterministic.
type v3coreResult struct {
	ivs     []Interval
	errs    []FrameError // capped at maxReportedFrames
	dropped int          // uncapped count behind errs
	dups    int
}

func (r *v3coreResult) drop(fe FrameError) {
	r.dropped++
	if len(r.errs) < maxReportedFrames {
		r.errs = append(r.errs, fe)
	}
}

// decodeGroups decodes each core's group frames, fanned out over at
// most workers goroutines, and merges the results: intervals into
// their streams, duplicates into the report, and dropped groups into
// the report's frame list, re-sorted by file offset.
func (d *framedDecoder) decodeGroups(workers int) {
	streams, logs := d.streams, d.l.Streams
	results := make([]v3coreResult, len(streams))
	if workers > 1 && len(streams) > 1 {
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		// Each goroutine writes only its own results slot; spawning in
		// stream order keeps scheduling (and any tracing) stable.
		for i := range streams {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				results[i] = decodeCoreGroups(logs[i].Core, streams[i].refs)
			}(i)
		}
		wg.Wait()
	} else {
		for i := range streams {
			results[i] = decodeCoreGroups(logs[i].Core, streams[i].refs)
		}
	}

	rep := d.rep
	var groupErrs []FrameError
	groupDropped := 0
	for i := range results {
		res := &results[i]
		d.l.Streams[i].Intervals = res.ivs
		rep.DupFrames += res.dups
		groupErrs = append(groupErrs, res.errs...)
		groupDropped += res.dropped
	}
	if groupDropped > 0 {
		merged := make([]FrameError, 0, len(rep.Frames)+len(groupErrs))
		merged = append(merged, rep.Frames...)
		merged = append(merged, groupErrs...)
		sort.SliceStable(merged, func(i, j int) bool { return merged[i].Offset < merged[j].Offset })
		if len(merged) > maxReportedFrames {
			merged = merged[:maxReportedFrames]
		}
		rep.Frames = merged
		rep.Dropped += groupDropped
	}
}

// decodeCoreGroups decodes one core's group frames in file order,
// enforcing cross-group Seq/Timestamp monotonicity the same way
// the v2 loop drops duplicate or out-of-order interval frames.
func decodeCoreGroups(core int, refs []groupRef) v3coreResult {
	var res v3coreResult
	var lastSeq, lastTs uint64
	have := false
	for _, ref := range refs {
		ivs, reason := decodeGroup(ref.flags, ref.body)
		if reason != "" {
			res.drop(FrameError{Offset: ref.off, Type: FrameIvGroup, Core: core, Reason: reason})
			continue
		}
		if have && ivs[0].Seq <= lastSeq {
			res.dups++
			continue
		}
		if have && ivs[0].Timestamp < lastTs {
			res.drop(FrameError{Offset: ref.off, Type: FrameIvGroup, Core: core, Reason: "timestamp regression across groups"})
			continue
		}
		res.ivs = append(res.ivs, ivs...)
		lastSeq = ivs[len(ivs)-1].Seq
		lastTs = ivs[len(ivs)-1].Timestamp
		have = true
	}
	return res
}

// compressor is a reusable flate writer and the output buffer of one
// encode worker: the compressed bodies of the groups it took, back to
// back. Encodes share the pool, so a steady stream of encodes pays for
// a writer's window and hash tables once per worker, not per call.
type compressor struct {
	fl  *flate.Writer
	out bytes.Buffer
}

var compressorPool sync.Pool

// compress deflates g's body onto c.out and, when the compressed form
// is the smaller, points g at it as compressor ci's output.
func (c *compressor) compress(ci int, g *groupJob, bodies []byte) {
	body := bodies[g.start:g.end]
	start := c.out.Len()
	if c.fl == nil {
		// DefaultCompression: group frames are written once and read
		// many times; spend encode cycles on ratio.
		c.fl, _ = flate.NewWriter(&c.out, flate.DefaultCompression)
	} else {
		c.fl.Reset(&c.out)
	}
	// flate fails only when its destination does, and a bytes.Buffer
	// cannot.
	_, _ = c.fl.Write(body)
	_ = c.fl.Close()
	// The compressed form must earn its flag: incompressible bodies
	// (tiny groups, high-entropy values) stay raw.
	if c.out.Len()-start < len(body) {
		g.comp, g.cstart, g.cend = ci, start, c.out.Len()
	} else {
		c.out.Truncate(start)
	}
}

// release returns c to the pool, dropping an output buffer grown past
// maxPooledBuf.
func (c *compressor) release() {
	c.out.Reset()
	if c.out.Cap() > maxPooledBuf {
		c.out = bytes.Buffer{}
	}
	compressorPool.Put(c)
}

// inflater is a reusable flate reader and output buffer for group
// bodies. DecodeParallel's workers share the pool, so a decode pays
// for the reader's window and tables once, not per group.
type inflater struct {
	src bytes.Reader
	fr  io.ReadCloser // a flate.Resetter
	lim io.LimitedReader
	out bytes.Buffer
}

var inflaterPool sync.Pool

// decodeGroup decodes one group body, inflating it first when flags
// says so. A non-empty reason means the group is lost.
func decodeGroup(flags byte, body []byte) ([]Interval, string) {
	if flags&flagFlate == 0 {
		return decodeGroupBody(body)
	}
	f, _ := inflaterPool.Get().(*inflater)
	if f == nil {
		f = &inflater{}
	}
	defer func() {
		f.reset()
		inflaterPool.Put(f)
	}()
	out, ok := f.inflate(body)
	if !ok {
		return nil, "corrupt flate body"
	}
	// decodeGroupBody copies every field out of out, so the buffer can
	// go back to the pool.
	return decodeGroupBody(out)
}

// inflate decompresses src into f's buffer, bounded by MaxFrameLen so
// a decompression bomb cannot out-allocate the clamps. The result is
// valid until the next reset.
func (f *inflater) inflate(src []byte) ([]byte, bool) {
	f.src.Reset(src)
	if f.fr == nil {
		f.fr = flate.NewReader(&f.src)
	} else if err := f.fr.(flate.Resetter).Reset(&f.src, nil); err != nil {
		return nil, false
	}
	f.lim = io.LimitedReader{R: f.fr, N: MaxFrameLen + 1}
	f.out.Reset()
	n, err := f.out.ReadFrom(&f.lim)
	if err != nil || n > MaxFrameLen {
		return nil, false
	}
	return f.out.Bytes(), true
}

// reset readies f for the pool: it drops the caller's log bytes and
// any output buffer grown past maxPooledBuf.
func (f *inflater) reset() {
	f.src.Reset(nil)
	if f.out.Cap() > maxPooledBuf {
		f.out = bytes.Buffer{}
	}
}

// decodeGroupBody parses one decompressed group body into intervals.
// A non-empty reason means the body is structurally corrupt and the
// whole group is the unit of loss.
func decodeGroupBody(body []byte) ([]Interval, string) {
	br := &frame.Cursor{Data: body}
	count := br.Uvarint()
	if br.Short || count == 0 || count > MaxGroupIntervals {
		return nil, "bad group interval count"
	}
	seq := br.Uvarint()
	ts := br.Uvarint()
	if br.Short {
		return nil, "short group header"
	}
	// Each interval costs at least two body bytes (nent+npred), so the
	// claimed count cannot out-allocate the bytes that back it.
	capHint := int(count)
	if capHint > br.Remaining()/2+1 {
		capHint = br.Remaining()/2 + 1
	}
	ivs := make([]Interval, 0, capHint)
	prevAddr := uint64(0)
	for i := 0; i < int(count); i++ {
		if i > 0 {
			sd := br.Uvarint()
			td := br.Uvarint()
			if br.Short {
				return nil, "short group body"
			}
			if sd == 0 {
				return nil, "zero seq delta"
			}
			if seq+sd < seq {
				return nil, "seq overflow"
			}
			seq += sd
			if ts+td < ts {
				return nil, "timestamp overflow"
			}
			ts += td
		}
		nent := br.Uvarint()
		npred := br.Uvarint()
		if br.Short ||
			nent > MaxEntriesPerInterval || int(nent) > br.Remaining() ||
			npred > MaxPredsPerInterval || int(npred)*2 > br.Remaining() {
			return nil, "bad interval counts"
		}
		iv := Interval{Seq: seq, CISN: uint16(seq), Timestamp: ts}
		if nent > 0 {
			iv.Entries = make([]Entry, 0, nent)
		}
		for j := uint64(0); j < nent; j++ {
			e, ok := readEntryV3(br, &prevAddr)
			if !ok {
				return nil, "corrupt entry"
			}
			iv.Entries = append(iv.Entries, e)
		}
		for j := uint64(0); j < npred; j++ {
			pc := br.Uvarint()
			ps := br.Uvarint()
			if br.Short || pc >= MaxCores {
				return nil, "corrupt pred"
			}
			iv.Preds = append(iv.Preds, Pred{Core: int(pc), Seq: ps})
		}
		ivs = append(ivs, iv)
	}
	if br.Remaining() != 0 {
		return nil, "trailing bytes in group"
	}
	return ivs, ""
}

// readEntryV3 decodes one varint-encoded entry; the bool is false on a
// short read, unknown type, or a field that overflows its Log width.
func readEntryV3(b *frame.Cursor, prevAddr *uint64) (Entry, bool) {
	var e Entry
	e.Type = EntryType(b.U8())
	switch e.Type {
	case InorderBlock:
		v := b.Uvarint()
		if v > math.MaxUint32 {
			return e, false
		}
		e.Size = uint32(v)
	case ReorderedLoad:
		e.Value = b.Uvarint()
	case ReorderedStore, PatchedStore:
		e.Addr = *prevAddr + uint64(b.Svarint())
		*prevAddr = e.Addr
		e.Value = b.Uvarint()
		off := b.Uvarint()
		if off > math.MaxUint16 {
			return e, false
		}
		e.Offset = uint16(off)
	case ReorderedAtomic:
		e.Addr = *prevAddr + uint64(b.Svarint())
		*prevAddr = e.Addr
		e.Value = b.Uvarint()
		e.StoreValue = b.Uvarint()
		off := b.Uvarint()
		if off > math.MaxUint16 {
			return e, false
		}
		e.Offset = uint16(off)
		e.DidWrite = b.U8() != 0
	case Dummy:
	default:
		return e, false
	}
	return e, !b.Short
}
