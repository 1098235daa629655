package replaylog

import (
	"bufio"
	"fmt"
	"io"
	"sync"

	"relaxreplay/internal/frame"
)

// Binary serialization of a Log. The on-disk format is byte-aligned
// and therefore larger than the uncompressed-bit accounting used for
// Figure 11; SizeBits remains the metric of record. Every format since
// v2 (see format.go and DESIGN.md) wraps everything in the CRC32C
// frames of internal/frame. EncodeV3 (v3.go) is the writer every tool
// uses; Encode still writes v2, for tests that pin v2 bytes and for
// v3-versus-v2 size comparisons. The decoders read v1, v2 and v3.

var magic = [4]byte{'R', 'R', 'L', 'G'}

const (
	formatV1 = 1
	formatV2 = 2
	formatV3 = 3
)

// encoder is the reusable state of one Encode or EncodeV3 call: the
// output buffer, the frame being written, the payload being built and,
// for v3, the group pipeline. It is pooled, so a steady stream of
// encodes allocates no buffers per frame or per call. count is the
// running frame total the end frame publishes, so the decoders can
// detect whole frames vanishing without a trace; off is the byte
// offset of the next frame after the preamble (the v3 index records
// it).
type encoder struct {
	bw    bufio.Writer
	out   []byte    // the frame being written (frame.Append's scratch)
	p     frame.Buf // the payload being built
	count uint32
	off   int64
	err   error

	// v3 group pipeline (v3.go).
	bodies frame.Buf     // every group's delta/varint body, back to back
	groups []groupJob    // one per group frame, in file order
	comps  []*compressor // the flate workers of the current encode
	group  frame.Buf     // flags | core | body
	spans  []IndexSpan   // the index being built
}

var encoderPool sync.Pool

// maxPooledBuf caps the buffers a pooled encoder, compressor or
// inflater keeps: one grown past it by a large or hostile log is
// dropped, so the pools cannot pin up to MaxFrameLen per entry.
const maxPooledBuf = 1 << 20

// newEncoder takes a pooled encoder and starts a file of the given
// format version on w.
func newEncoder(w io.Writer, version uint16) *encoder {
	enc, _ := encoderPool.Get().(*encoder)
	if enc == nil {
		enc = &encoder{}
	}
	enc.bw.Reset(w)
	enc.count, enc.off, enc.err = 0, 0, nil
	enc.p.Reset()
	enc.p.Raw(magic[:])
	enc.p.U16(version)
	_, enc.err = enc.bw.Write(enc.p.Bytes())
	return enc
}

// release returns enc, and the compressors it borrowed, to their
// pools.
func (enc *encoder) release() {
	enc.bw.Reset(nil)
	if cap(enc.out) > maxPooledBuf {
		enc.out = nil
	}
	for _, b := range [...]*frame.Buf{&enc.p, &enc.bodies, &enc.group} {
		if b.Cap() > maxPooledBuf {
			*b = frame.Buf{}
		}
	}
	// groupJob and IndexSpan entries are under 64 bytes each.
	if cap(enc.groups) > maxPooledBuf/64 {
		enc.groups = nil
	}
	if cap(enc.spans) > maxPooledBuf/64 {
		enc.spans = nil
	}
	for _, c := range enc.comps {
		c.release()
	}
	clear(enc.comps)
	enc.comps = enc.comps[:0]
	encoderPool.Put(enc)
}

// frame writes one frame carrying body. The first error sticks and
// turns every later call into a no-op; finish reports it.
//
//rrlint:hotpath
func (enc *encoder) frame(t FrameType, body []byte) {
	if enc.err != nil {
		return
	}
	out, err := frame.Append(enc.out[:0], uint8(t), body, MaxFrameLen)
	if err != nil {
		enc.err = fmt.Errorf("%w: %v %w", ErrOversizeFrame, t, err) //rrlint:allow hotpath-alloc (terminal error path)
		return
	}
	enc.out = out
	if _, err := enc.bw.Write(out); err != nil {
		enc.err = err
		return
	}
	enc.count++
	enc.off += int64(len(out))
}

// finish flushes the file, returning the encode's first error.
func (enc *encoder) finish() error {
	if enc.err != nil {
		return enc.err
	}
	return enc.bw.Flush()
}

// headerFrames writes the header frame and one inputs frame per core,
// the part of the file v2 and v3 share.
func (enc *encoder) headerFrames(l *Log) {
	p := &enc.p
	p.Reset()
	patched := uint8(0)
	if l.Patched {
		patched = 1
	}
	p.U32(uint32(l.Cores))
	p.U8(patched)
	p.U32(uint32(len(l.Inputs)))
	p.Str(l.Variant)
	enc.frame(FrameHeader, p.Bytes())

	for c, in := range l.Inputs {
		p.Reset()
		p.U32(uint32(c))
		p.U32(uint32(len(in)))
		for _, v := range in {
			p.U64(v)
		}
		enc.frame(FrameInputs, p.Bytes())
	}
}

// streamFrame writes the frame that declares a core's interval count.
func (enc *encoder) streamFrame(s *CoreLog) {
	enc.p.Reset()
	enc.p.U32(uint32(s.Core))
	enc.p.U32(uint32(len(s.Intervals)))
	enc.frame(FrameStream, enc.p.Bytes())
}

// putEntry appends one entry in the fixed-width encoding v1 and v2
// share.
func putEntry(p *frame.Buf, e Entry) error {
	p.U8(uint8(e.Type))
	switch e.Type {
	case InorderBlock:
		p.U32(e.Size)
	case ReorderedLoad:
		p.U64(e.Value)
	case ReorderedStore, PatchedStore:
		p.U64(e.Addr)
		p.U64(e.Value)
		p.U16(e.Offset)
	case ReorderedAtomic:
		p.U64(e.Addr)
		p.U64(e.Value)
		p.U64(e.StoreValue)
		p.U16(e.Offset)
		w := uint8(0)
		if e.DidWrite {
			w = 1
		}
		p.U8(w)
	case Dummy:
	default:
		return fmt.Errorf("replaylog: cannot encode entry type %v", e.Type)
	}
	return nil
}

// Encode writes the log to w in format v2: one frame per interval.
func Encode(w io.Writer, l *Log) error {
	if err := checkEncodeCounts(l); err != nil {
		return err
	}
	enc := newEncoder(w, formatV2)
	defer enc.release()
	enc.headerFrames(l)
	p := &enc.p
	for si := range l.Streams {
		s := &l.Streams[si]
		enc.streamFrame(s)
		for i := range s.Intervals {
			iv := &s.Intervals[i]
			p.Reset()
			p.U32(uint32(s.Core))
			p.U64(iv.Seq)
			p.U64(iv.Timestamp)
			p.U32(uint32(len(iv.Entries)))
			p.U32(uint32(len(iv.Preds)))
			for _, e := range iv.Entries {
				if err := putEntry(p, e); err != nil {
					return err
				}
			}
			for _, pr := range iv.Preds {
				p.U32(uint32(pr.Core))
				p.U64(pr.Seq)
			}
			enc.frame(FrameInterval, p.Bytes())
		}
	}
	p.Reset()
	p.U32(enc.count)
	enc.frame(FrameEnd, p.Bytes())
	return enc.finish()
}

// checkEncodeCounts rejects, before a single byte is written, every
// count the fixed-width wire fields (and the decoder's clamps, which
// are far tighter) could not round-trip. Without these guards an
// oversize value — e.g. a variant string longer than the u16 length
// field — would be silently truncated into a corrupt-but-checksummed
// frame that decodes to the wrong log.
func checkEncodeCounts(l *Log) error {
	if l.Cores < 0 || l.Cores > MaxCores {
		return fmt.Errorf("%w: core count %d (limit %d)", ErrOversizeFrame, l.Cores, MaxCores)
	}
	if len(l.Inputs) > MaxCores {
		return fmt.Errorf("%w: %d input streams (limit %d)", ErrOversizeFrame, len(l.Inputs), MaxCores)
	}
	if len(l.Variant) > MaxVariantLen {
		return fmt.Errorf("%w: variant string is %d bytes (limit %d)", ErrOversizeFrame, len(l.Variant), MaxVariantLen)
	}
	for c, in := range l.Inputs {
		if len(in) > MaxInputLen {
			return fmt.Errorf("%w: core %d input stream has %d entries (limit %d)", ErrOversizeFrame, c, len(in), MaxInputLen)
		}
	}
	for si := range l.Streams {
		s := &l.Streams[si]
		if s.Core < 0 || s.Core >= MaxCores {
			return fmt.Errorf("%w: stream core %d (limit %d)", ErrOversizeFrame, s.Core, MaxCores)
		}
		if len(s.Intervals) > MaxIntervalsPerCore {
			return fmt.Errorf("%w: core %d has %d intervals (limit %d)", ErrOversizeFrame, s.Core, len(s.Intervals), MaxIntervalsPerCore)
		}
		for i := range s.Intervals {
			iv := &s.Intervals[i]
			if len(iv.Entries) > MaxEntriesPerInterval {
				return fmt.Errorf("%w: core %d interval %d has %d entries (limit %d)", ErrOversizeFrame, s.Core, iv.Seq, len(iv.Entries), MaxEntriesPerInterval)
			}
			if len(iv.Preds) > MaxPredsPerInterval {
				return fmt.Errorf("%w: core %d interval %d has %d preds (limit %d)", ErrOversizeFrame, s.Core, iv.Seq, len(iv.Preds), MaxPredsPerInterval)
			}
		}
	}
	return nil
}
