package rrnet

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"

	"relaxreplay/internal/frame"
)

// The journal is rrproc's single append-only file of record. Every
// record is a CRC32C frame in the shared envelope (internal/frame), so
// recovery is the same salvage-by-resync scan the log decoder uses
// (frame.Scanner): a torn tail
// (crash mid-write), a damaged record, or garbage between records
// costs exactly the unreadable bytes, never the file.
//
//	journal := magic "RRJL" | version u16 (LE) | pad u16
//	         | frame...
//
// Record frames (types start at 0x30, clear of wire messages):
//
//	jr-session (0x30): session u64 | tenant str
//	jr-chunk   (0x31): session u64 | seq u64 | data...
//	jr-commit  (0x32): session u64 | status u8 | chunks u64 | loglen u64
//	                   | logcrc u32 | ndrop u64 | missing u64 | reason str
//	jr-segment (0x33): fileoff u64      — written immediately before
//	                   each fsync; marks everything above it durable
//
// Invariants the recovery scan relies on:
//
//  1. jr-chunk records for one session appear in seq order with no
//     gaps and no duplicates — the server journals a chunk only when
//     it extends the session's contiguous prefix.
//  2. jr-commit is fsync'd before the commit-ack leaves the server,
//     so an acked commit is never lost.
//  3. A session's chunks never need reordering at read time; export
//     is plain concatenation.
var journalMagic = [4]byte{'R', 'R', 'J', 'L'}

// JournalVersion is the on-disk journal format version.
const JournalVersion = 1

const (
	JrSession MsgType = 0x30
	JrChunk   MsgType = 0x31
	JrCommit  MsgType = 0x32
	JrSegment MsgType = 0x33
)

// ErrBadJournal reports a file that is not a journal at all (wrong
// magic/version). Damage past the header is salvaged, not fatal.
var ErrBadJournal = errors.New("rrnet: not a journal file")

// Journal is the append side. Callers serialize writes; a segment
// boundary (jr-segment record + fsync) lands after every
// fsyncEvery bytes and on every commit.
type Journal struct {
	f          *os.File
	off        int64
	fsyncEvery int
	sinceSync  int

	// p is the record payload being built and out the record frame;
	// both are reused across records, so they hold at most one
	// MaxWirePayload chunk each.
	p   frame.Buf
	out []byte
}

// OpenJournal opens (creating or appending) the journal at path.
func OpenJournal(path string, fsyncEvery int) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		closeFile(f)
		return nil, err
	}
	if fsyncEvery <= 0 {
		fsyncEvery = DefaultFsyncEveryBytes
	}
	j := &Journal{f: f, fsyncEvery: fsyncEvery}
	if st.Size() == 0 {
		var hdr [8]byte
		copy(hdr[:4], journalMagic[:])
		hdr[4] = JournalVersion
		if _, err := f.Write(hdr[:]); err != nil {
			closeFile(f)
			return nil, err
		}
		if err := f.Sync(); err != nil {
			closeFile(f)
			return nil, err
		}
		j.off = int64(len(hdr))
		return j, nil
	}
	var hdr [8]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil || [4]byte(hdr[:4]) != journalMagic || hdr[4] != JournalVersion {
		closeFile(f)
		return nil, fmt.Errorf("%w: %s", ErrBadJournal, path)
	}
	// Append past the existing tail — including a torn one. The next
	// record's sync word lets the recovery scan skip the tear.
	off, err := f.Seek(0, 2)
	if err != nil {
		closeFile(f)
		return nil, err
	}
	j.off = off
	return j, nil
}

// append writes the record built in j.p; returns true when it
// triggered a segment fsync (everything written so far is now
// durable).
func (j *Journal) append(t MsgType) (synced bool, err error) {
	if err := j.write(t); err != nil {
		return false, err
	}
	if j.sinceSync >= j.fsyncEvery {
		return true, j.barrier()
	}
	return false, nil
}

// write frames j.p as one record of type t and writes it.
func (j *Journal) write(t MsgType) error {
	out, err := frame.Append(j.out[:0], uint8(t), j.p.Bytes(), MaxWirePayload)
	if err != nil {
		return fmt.Errorf("%w: %s %w", ErrFrameTooLarge, t, err)
	}
	j.out = out
	if _, err := j.f.Write(out); err != nil {
		return err
	}
	j.off += int64(len(out))
	j.sinceSync += len(out)
	return nil
}

// barrier writes a jr-segment record and fsyncs.
func (j *Journal) barrier() error {
	j.p.Reset()
	j.p.U64(uint64(j.off))
	if err := j.write(JrSegment); err != nil {
		return err
	}
	j.sinceSync = 0
	return j.f.Sync()
}

// Session journals a session-open record.
func (j *Journal) Session(id uint64, tenant string) (bool, error) {
	j.p.Reset()
	j.p.U64(id)
	j.p.Str(tenant)
	return j.append(JrSession)
}

// Chunk journals one in-order chunk.
func (j *Journal) Chunk(id, seq uint64, data []byte) (bool, error) {
	j.p.Reset()
	j.p.U64(id)
	j.p.U64(seq)
	j.p.Raw(data)
	return j.append(JrChunk)
}

// Commit journals the session verdict and forces a segment barrier:
// an acked commit is always durable.
func (j *Journal) Commit(id uint64, status uint8, chunks, logLen uint64, logCRC uint32, nDrop, missing uint64, reason string) error {
	p := &j.p
	p.Reset()
	p.U64(id)
	p.U8(status)
	p.U64(chunks)
	p.U64(logLen)
	p.U32(logCRC)
	p.U64(nDrop)
	p.U64(missing)
	p.Str(reason)
	if _, err := j.append(JrCommit); err != nil {
		return err
	}
	return j.barrier()
}

// Close barriers and closes the file.
func (j *Journal) Close() error {
	if j.sinceSync > 0 {
		if err := j.barrier(); err != nil {
			closeFile(j.f)
			return err
		}
	}
	return j.f.Close()
}

// JournalSession is one session's recovered state.
type JournalSession struct {
	ID     uint64
	Tenant string
	Data   []byte // in-order concatenated chunk payloads
	Chunks uint64 // chunk records applied (== next expected seq)

	// Durable marks how many of Chunks were covered by a segment
	// barrier — the contig a restarted server may safely re-offer.
	Durable uint64

	Committed bool
	Status    uint8
	LogLen    uint64
	LogCRC    uint32
	NDrop     uint64
	Missing   uint64
	Reason    string
}

// JournalView is a recovered journal.
type JournalView struct {
	Sessions map[uint64]*JournalSession
	Order    []uint64 // session IDs in first-seen order

	// Salvage report from the scan.
	SkippedBytes  int64
	DroppedFrames int
	DupChunks     int // benign re-sends after a server restart
	TornTail      bool
}

// ReadJournal scans (and salvages) a journal file.
func ReadJournal(path string) (*JournalView, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	v := readJournal(raw)
	if v == nil {
		return nil, fmt.Errorf("%w: %s", ErrBadJournal, path)
	}
	return v, nil
}

// readJournal recovers a journal from its bytes; nil means they are
// not a journal at all.
//
// The scan is byte-accurate: on a CRC failure or an impossible length
// it rewinds to one byte past the candidate sync word and hunts
// again, exactly like the log decoder. This matters for the
// crash-and-restart shape, where a torn record sits in the MIDDLE of
// the file (the restarted server appended past it): a reader that
// trusted the torn header's length would swallow the next intact
// records, and the session's contiguity rule would then discard the
// entire re-streamed tail.
func readJournal(raw []byte) *JournalView {
	if len(raw) < 8 || [4]byte(raw[:4]) != journalMagic || raw[4] != JournalVersion {
		return nil
	}
	v := &JournalView{Sessions: make(map[uint64]*JournalSession)}
	s := frame.NewScanner(raw[8:], MaxWirePayload, nil)
	for {
		f, ok := s.Next()
		if !ok {
			break
		}
		if f.BadCRC {
			v.DroppedFrames++
			continue
		}
		v.apply(MsgType(f.Type), f.Payload)
	}
	// A candidate running past EOF is a torn tail (or a lying length);
	// so is a stub too short to be a frame.
	v.SkippedBytes = s.Skipped() + int64(s.Tail())
	v.TornTail = s.Torn() || s.Tail() > 0
	return v
}

// apply replays one intact record into the view.
func (v *JournalView) apply(t MsgType, payload []byte) {
	s := &frame.Cursor{Data: payload}
	switch t {
	case JrSession:
		id := s.U64()
		tenant := s.Str(MaxTenantLen)
		if s.Short {
			v.DroppedFrames++
			return
		}
		sess := v.session(id)
		if sess.Tenant == "" {
			sess.Tenant = tenant
		}
	case JrChunk:
		id, seq := s.U64(), s.U64()
		if s.Short {
			v.DroppedFrames++
			return
		}
		data := s.Rest()
		sess := v.session(id)
		// Invariant 1 (in-order) holds per server lifetime, but a
		// restart legitimately re-journals chunks the client
		// re-sent past the recovery point — those arrive as exact
		// duplicates (seq < Chunks) and are skipped. A seq AHEAD
		// of the prefix means a record was destroyed; chunks past
		// a real gap cannot be placed and count as dropped.
		switch {
		case seq == sess.Chunks:
			sess.Data = append(sess.Data, data...)
			sess.Chunks++
		case seq < sess.Chunks:
			v.DupChunks++
		default:
			v.DroppedFrames++
		}
	case JrCommit:
		id := s.U64()
		status := s.U8()
		s.U64() // chunks: the client's count, informational
		logLen := s.U64()
		logCRC := s.U32()
		nDrop, missing := s.U64(), s.U64()
		reason := s.Str(MaxReasonLen)
		if s.Short {
			v.DroppedFrames++
			return
		}
		sess := v.session(id)
		sess.Committed = true
		sess.Status = status
		sess.LogLen, sess.LogCRC = logLen, logCRC
		sess.NDrop, sess.Missing = nDrop, missing
		sess.Reason = reason
	case JrSegment:
		// Everything applied so far was fsync-covered.
		for _, sess := range v.Sessions {
			sess.Durable = sess.Chunks
		}
	default:
		v.DroppedFrames++
	}
}

func (v *JournalView) session(id uint64) *JournalSession {
	sess := v.Sessions[id]
	if sess == nil {
		sess = &JournalSession{ID: id}
		v.Sessions[id] = sess
		v.Order = append(v.Order, id)
	}
	return sess
}

// SortedIDs returns the session IDs in ascending order (for stable
// query output; Order preserves arrival order instead).
func (v *JournalView) SortedIDs() []uint64 {
	ids := make([]uint64, 0, len(v.Sessions))
	for id := range v.Sessions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, k int) bool { return ids[i] < ids[k] })
	return ids
}

// Export writes one session's reassembled log bytes to w. For a
// committed StatusOK session this is byte-identical to what the
// client's WriteLog produced locally (verified: rolling CRC).
func (v *JournalView) Export(id uint64, w io.Writer) error {
	sess := v.Sessions[id]
	if sess == nil {
		return fmt.Errorf("rrnet: no session %d in journal", id)
	}
	_, err := w.Write(sess.Data)
	return err
}

// Verify cross-checks a committed session's reassembled bytes against
// the commit record's client-side CRC. Degraded sessions (NDrop > 0)
// are not verifiable — the client CRC covers bytes it shed.
func (sess *JournalSession) Verify() error {
	if !sess.Committed {
		return fmt.Errorf("rrnet: session %d has no commit record", sess.ID)
	}
	if sess.NDrop > 0 {
		return fmt.Errorf("rrnet: session %d is degraded (%d chunks shed); CRC not comparable", sess.ID, sess.NDrop)
	}
	if uint64(len(sess.Data)) != sess.LogLen {
		return fmt.Errorf("rrnet: session %d: journal holds %d bytes, commit declared %d", sess.ID, len(sess.Data), sess.LogLen)
	}
	if crc := crc32.Checksum(sess.Data, frame.Castagnoli); crc != sess.LogCRC {
		return fmt.Errorf("rrnet: session %d: journal CRC %08x != committed CRC %08x", sess.ID, crc, sess.LogCRC)
	}
	return nil
}

// closeFile closes a read-side or already-doomed file handle.
func closeFile(f *os.File) {
	_ = f.Close()
}
