package replaylog

import (
	"fmt"

	"relaxreplay/internal/frame"
	"relaxreplay/internal/provenance"
)

// FrameProvenance codec (see format.go for the wire layout). The
// sideband is persisted only by the v3 encoder; one frame per core,
// written after the interval group frames and before the index footer
// so the segment-index spans are unaffected. The payload leads with a
// version byte: a decoder that sees a version it does not know skips
// the frame cleanly (counted, not reported), which is how future
// payload revisions stay backward-salvageable.

// provVersion is the current FrameProvenance payload version.
const provVersion = 1

// provMinRecordLen / provMinReorderLen are the smallest possible wire
// sizes of one record / one reorder instant; count fields are checked
// against the bytes that back them before any allocation.
const (
	provMinRecordLen  = 9
	provMinReorderLen = 3
)

// provenanceFrames writes one FrameProvenance frame per entry of
// l.Provenance.
func (enc *encoder) provenanceFrames(l *Log) error {
	p := &enc.p
	for i := range l.Provenance {
		cp := &l.Provenance[i]
		if cp.Core < 0 || cp.Core >= MaxCores {
			return fmt.Errorf("%w: provenance core %d (limit %d)", ErrOversizeFrame, cp.Core, MaxCores)
		}
		if len(cp.Records) > MaxIntervalsPerCore {
			return fmt.Errorf("%w: core %d has %d provenance records (limit %d)", ErrOversizeFrame, cp.Core, len(cp.Records), MaxIntervalsPerCore)
		}
		p.Reset()
		p.U8(provVersion)
		p.Uvarint(uint64(cp.Core))
		p.Uvarint(uint64(len(cp.Records)))
		for ri := range cp.Records {
			r := &cp.Records[ri]
			if len(r.Reorders) > MaxEntriesPerInterval {
				return fmt.Errorf("%w: core %d provenance seq %d has %d reorders (limit %d)", ErrOversizeFrame, cp.Core, r.Seq, len(r.Reorders), MaxEntriesPerInterval)
			}
			p.Uvarint(r.Seq)
			p.U8(uint8(r.Cause))
			p.Uvarint(r.Cycle)
			p.Uvarint(uint64(r.TRAQOccupancy))
			p.Uvarint(uint64(r.SnoopNonzero))
			p.Uvarint(r.ConflictLine)
			w := uint8(0)
			if r.ConflictWrite {
				w = 1
			}
			p.U8(w)
			p.Svarint(int64(r.RemoteCore))
			p.Uvarint(uint64(len(r.Reorders)))
			for j := range r.Reorders {
				re := &r.Reorders[j]
				p.U8(re.Kind)
				p.Uvarint(uint64(re.Offset))
				p.Uvarint(re.Cycle)
			}
		}
		enc.frame(FrameProvenance, p.Bytes())
	}
	return nil
}

// decodeProvenanceBody parses a FrameProvenance payload *after* the
// leading version byte was read and matched. A non-empty reason means
// the frame is structurally corrupt and is dropped whole (the frame is
// the unit of loss, like a group frame).
func decodeProvenanceBody(br *frame.Cursor) (core int, recs []provenance.Record, reason string) {
	c := br.Uvarint()
	count := br.Uvarint()
	if br.Short {
		return 0, nil, "short provenance frame"
	}
	if c >= MaxCores {
		return 0, nil, fmt.Sprintf("core %d exceeds limit", c)
	}
	if count > MaxIntervalsPerCore || int(count)*provMinRecordLen > br.Remaining() {
		return 0, nil, fmt.Sprintf("record count %d exceeds frame", count)
	}
	recs = make([]provenance.Record, 0, count)
	for i := uint64(0); i < count; i++ {
		var r provenance.Record
		r.Seq = br.Uvarint()
		r.Cause = provenance.Cause(br.U8())
		r.Cycle = br.Uvarint()
		traq := br.Uvarint()
		snoop := br.Uvarint()
		r.ConflictLine = br.Uvarint()
		r.ConflictWrite = br.U8() != 0
		remote := br.Svarint()
		nre := br.Uvarint()
		if br.Short {
			return 0, nil, "short provenance record"
		}
		if traq > 1<<32-1 || snoop > 1<<32-1 {
			return 0, nil, "provenance occupancy overflows u32"
		}
		if remote < -1 || remote >= MaxCores {
			return 0, nil, fmt.Sprintf("bad provenance remote core %d", remote)
		}
		if nre > MaxEntriesPerInterval || int(nre)*provMinReorderLen > br.Remaining() {
			return 0, nil, fmt.Sprintf("reorder count %d exceeds frame", nre)
		}
		r.TRAQOccupancy = uint32(traq)
		r.SnoopNonzero = uint32(snoop)
		r.RemoteCore = int32(remote)
		if nre > 0 {
			r.Reorders = make([]provenance.Reorder, 0, nre)
			for j := uint64(0); j < nre; j++ {
				kind := br.U8()
				off := br.Uvarint()
				cyc := br.Uvarint()
				if br.Short {
					return 0, nil, "short reorder instant"
				}
				if off > 1<<16-1 {
					return 0, nil, "reorder offset overflows u16"
				}
				r.Reorders = append(r.Reorders, provenance.Reorder{Kind: kind, Offset: uint16(off), Cycle: cyc})
			}
		}
		recs = append(recs, r)
	}
	if br.Remaining() != 0 {
		return 0, nil, "trailing bytes in provenance frame"
	}
	return int(c), recs, ""
}

// attachProvenance merges one decoded provenance frame into the log,
// concatenating records when a core appears in more than one frame so
// the in-memory form is canonical regardless of frame layout.
func attachProvenance(l *Log, core int, recs []provenance.Record) {
	for i := range l.Provenance {
		if l.Provenance[i].Core == core {
			l.Provenance[i].Records = append(l.Provenance[i].Records, recs...)
			return
		}
	}
	l.Provenance = append(l.Provenance, provenance.CoreProvenance{Core: core, Records: recs})
}
