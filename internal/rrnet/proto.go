// Package rrnet is the networked record-and-replay transport: the
// wire protocol, client, server and crash-safe journal behind the
// cmd/rrd (recorder agent) and cmd/rrproc (central processor)
// daemons. The relationship is 1:N — one rrproc multiplexes many
// concurrent rrd sessions into a single append-only journal.
//
// The design is robustness-first. Everything on the wire is a
// CRC32C-checked frame in the envelope log formats v2/v3 use
// (internal/frame), so a damaged stream is resynchronized, never
// trusted; the client retries with capped
// exponential backoff plus deterministic jitter and resumes a session
// after reconnect from the server's cumulative ack; the send window is
// bounded, and a full window makes Write wait, so nothing is ever shed
// or spilled; the server deduplicates
// re-delivered chunks so retry is idempotent; and the journal fsyncs
// at segment boundaries and recovers after a crash with the same
// salvage-by-resync discipline as replaylog.DecodeParallel. See
// DESIGN.md "Networked streaming: rrd, rrproc and the journal".
package rrnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"relaxreplay/internal/frame"
)

// Wire preamble: sent by the client immediately after connecting.
//
//	preamble := magic "RRNT" | version u16 (LE)
//
// Everything after the preamble — in both directions — is a frame in
// the envelope of internal/frame, the one log files use:
//
//	frame := sync | type u8 | length u32 (LE, payload bytes)
//	       | payload | crc32c u32 (LE, over type|length|payload)
//
// Message payloads (all integers little-endian, strings u16-length-
// prefixed):
//
//	hello        (0x20): proto u16 | session u64 | resume u8 | tenant str
//	hello-ack    (0x21): status u8 | contig u64 | durable u64 | reason str
//	chunk        (0x22): session u64 | seq u64 | data...
//	ack          (0x23): session u64 | contig u64 | durable u64
//	commit       (0x24): session u64 | chunks u64 | loglen u64 | logcrc u32
//	                     | ndropped u32 | dropped seq u64 each
//	commit-ack   (0x25): session u64 | status u8 | missing u64 | reason str
//	heartbeat    (0x26): nonce u64
//	heartbeat-ack(0x27): nonce u64
//	error        (0x28): code u8 | message str
//
// contig is the cumulative ack: the number of chunks received
// contiguously from seq 0, i.e. the next seq the server needs. A
// client that reconnects resumes sending at contig; the server
// discards (but still acks) any chunk below it, which is what makes
// re-delivery after an ambiguous failure idempotent.
//
// durable is the crash-safe prefix: chunks below it have reached the
// journal AND been covered by an fsync'd segment boundary. The client
// frees buffered chunks only below durable — contig alone is not
// permission to forget, because a crashed-and-restarted rrproc
// recovers to its last durable point and may legitimately report a
// contig lower than one it acked before the crash. durable is
// monotonic across reconnects; contig may rewind at a handshake.

var wireMagic = [4]byte{'R', 'R', 'N', 'T'}

// ProtoVersion is the wire protocol version in the preamble and hello.
const ProtoVersion = 1

// MsgType discriminates wire frames. The range starts at 0x20, clear
// of the replaylog frame types (1..8), so a wire frame can never be
// mistaken for a log frame by a tool scanning the wrong stream.
type MsgType uint8

const (
	MsgHello        MsgType = 0x20
	MsgHelloAck     MsgType = 0x21
	MsgChunk        MsgType = 0x22
	MsgAck          MsgType = 0x23
	MsgCommit       MsgType = 0x24
	MsgCommitAck    MsgType = 0x25
	MsgHeartbeat    MsgType = 0x26
	MsgHeartbeatAck MsgType = 0x27
	MsgError        MsgType = 0x28
)

func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgHelloAck:
		return "hello-ack"
	case MsgChunk:
		return "chunk"
	case MsgAck:
		return "ack"
	case MsgCommit:
		return "commit"
	case MsgCommitAck:
		return "commit-ack"
	case MsgHeartbeat:
		return "heartbeat"
	case MsgHeartbeatAck:
		return "heartbeat-ack"
	case MsgError:
		return "error"
	}
	return fmt.Sprintf("msg(0x%02x)", uint8(t))
}

// Hello-ack / commit-ack status codes.
const (
	StatusOK       = 0 // accepted / committed with every chunk accounted for
	StatusDegraded = 1 // committed, but chunks are missing (reported)
	StatusReject   = 2 // refused (reason attached)
)

// Decode limits: every length or count field read off the wire is
// clamped before any allocation, exactly like the log decoder's
// hostile-header discipline.
const (
	// MaxWirePayload bounds one frame payload (16 MiB).
	MaxWirePayload = 1 << 24
	// MaxTenantLen bounds the tenant string.
	MaxTenantLen = 1 << 10
	// MaxReasonLen bounds ack/error reason strings.
	MaxReasonLen = 1 << 12
	// MaxDroppedReport bounds the dropped-seq list a commit may carry;
	// a client that dropped more reports the count but lists only the
	// first MaxDroppedReport.
	MaxDroppedReport = 1 << 12
)

// Typed wire errors.
var (
	// ErrBadPreamble reports a connection that did not open with the
	// RRNT magic and a supported version.
	ErrBadPreamble = errors.New("rrnet: bad connection preamble")
	// ErrFrameTooLarge reports a frame whose length field exceeds
	// MaxWirePayload; the stream cannot be trusted past it.
	ErrFrameTooLarge = errors.New("rrnet: wire frame too large")
	// ErrResyncBudget reports a stream that needed more garbage skipped
	// than the reader's budget allows.
	ErrResyncBudget = frame.ErrResyncBudget
)

// writeFrame writes one frame to w as a single Write call, which is
// what the fault transport (WrapFaultConn) keys on: one Write == one
// frame.
func writeFrame(w io.Writer, t MsgType, payload []byte) error {
	buf, err := frame.Append(make([]byte, 0, frame.Overhead+len(payload)), uint8(t), payload, MaxWirePayload)
	if err != nil {
		return fmt.Errorf("%w: %s %w", ErrFrameTooLarge, t, err)
	}
	_, err = w.Write(buf)
	return err
}

// writePreamble / readPreamble frame the connection open.
func writePreamble(w io.Writer) error {
	var b [6]byte
	copy(b[:4], wireMagic[:])
	binary.LittleEndian.PutUint16(b[4:], ProtoVersion)
	_, err := w.Write(b[:])
	return err
}

func readPreamble(r io.Reader) error {
	var b [6]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return fmt.Errorf("%w: %v", ErrBadPreamble, err)
	}
	if [4]byte(b[:4]) != wireMagic {
		return fmt.Errorf("%w: magic %q", ErrBadPreamble, b[:4])
	}
	if v := binary.LittleEndian.Uint16(b[4:]); v != ProtoVersion {
		return fmt.Errorf("%w: version %d (want %d)", ErrBadPreamble, v, ProtoVersion)
	}
	return nil
}

// Message structs and their codecs.

type helloMsg struct {
	Proto   uint16
	Session uint64
	Resume  bool
	Tenant  string
}

func encodeHello(m helloMsg) []byte {
	var p frame.Buf
	p.U16(m.Proto)
	p.U64(m.Session)
	r := uint8(0)
	if m.Resume {
		r = 1
	}
	p.U8(r)
	p.Str(m.Tenant)
	return p.Bytes()
}

func decodeHello(b []byte) (helloMsg, bool) {
	s := &frame.Cursor{Data: b}
	m := helloMsg{Proto: s.U16(), Session: s.U64(), Resume: s.U8() != 0, Tenant: s.Str(MaxTenantLen)}
	return m, !s.Short
}

type helloAckMsg struct {
	Status  uint8
	Contig  uint64
	Durable uint64
	Reason  string
}

func encodeHelloAck(m helloAckMsg) []byte {
	var p frame.Buf
	p.U8(m.Status)
	p.U64(m.Contig)
	p.U64(m.Durable)
	p.Str(m.Reason)
	return p.Bytes()
}

func decodeHelloAck(b []byte) (helloAckMsg, bool) {
	s := &frame.Cursor{Data: b}
	m := helloAckMsg{Status: s.U8(), Contig: s.U64(), Durable: s.U64(), Reason: s.Str(MaxReasonLen)}
	return m, !s.Short
}

type chunkMsg struct {
	Session uint64
	Seq     uint64
	Data    []byte
}

func encodeChunk(m chunkMsg) []byte {
	var p frame.Buf
	p.Grow(16 + len(m.Data))
	p.U64(m.Session)
	p.U64(m.Seq)
	p.Raw(m.Data)
	return p.Bytes()
}

func decodeChunk(b []byte) (chunkMsg, bool) {
	s := &frame.Cursor{Data: b}
	m := chunkMsg{Session: s.U64(), Seq: s.U64()}
	if s.Short {
		return m, false
	}
	m.Data = s.Take(s.Remaining())
	return m, !s.Short
}

type ackMsg struct {
	Session uint64
	Contig  uint64
	Durable uint64
}

func encodeAck(m ackMsg) []byte {
	var p frame.Buf
	p.U64(m.Session)
	p.U64(m.Contig)
	p.U64(m.Durable)
	return p.Bytes()
}

func decodeAck(b []byte) (ackMsg, bool) {
	s := &frame.Cursor{Data: b}
	m := ackMsg{Session: s.U64(), Contig: s.U64(), Durable: s.U64()}
	return m, !s.Short
}

type commitMsg struct {
	Session uint64
	Chunks  uint64 // chunks the client produced (including dropped)
	LogLen  uint64 // total log bytes produced
	LogCRC  uint32 // CRC32C over the full produced log bytes
	// Dropped and NDrop report chunks the client shed. Client never
	// sheds and always sends them empty; the server still reads them
	// and classifies a session that reports any as degraded.
	Dropped []uint64
	NDrop   uint64 // true dropped count (may exceed len(Dropped))
}

func encodeCommit(m commitMsg) []byte {
	var p frame.Buf
	p.U64(m.Session)
	p.U64(m.Chunks)
	p.U64(m.LogLen)
	p.U32(m.LogCRC)
	p.U64(m.NDrop)
	list := m.Dropped
	if len(list) > MaxDroppedReport {
		list = list[:MaxDroppedReport]
	}
	p.U32(uint32(len(list)))
	for _, d := range list {
		p.U64(d)
	}
	return p.Bytes()
}

func decodeCommit(b []byte) (commitMsg, bool) {
	s := &frame.Cursor{Data: b}
	m := commitMsg{Session: s.U64(), Chunks: s.U64(), LogLen: s.U64(), LogCRC: s.U32(), NDrop: s.U64()}
	n := s.U32()
	if s.Short || n > MaxDroppedReport || int(n)*8 > s.Remaining() {
		return m, false
	}
	for i := uint32(0); i < n; i++ {
		m.Dropped = append(m.Dropped, s.U64())
	}
	return m, !s.Short
}

type commitAckMsg struct {
	Session uint64
	Status  uint8
	Missing uint64
	Reason  string
}

func encodeCommitAck(m commitAckMsg) []byte {
	var p frame.Buf
	p.U64(m.Session)
	p.U8(m.Status)
	p.U64(m.Missing)
	p.Str(m.Reason)
	return p.Bytes()
}

func decodeCommitAck(b []byte) (commitAckMsg, bool) {
	s := &frame.Cursor{Data: b}
	m := commitAckMsg{Session: s.U64(), Status: s.U8(), Missing: s.U64(), Reason: s.Str(MaxReasonLen)}
	return m, !s.Short
}

func encodeNonce(nonce uint64) []byte {
	var p frame.Buf
	p.U64(nonce)
	return p.Bytes()
}

func decodeNonce(b []byte) (uint64, bool) {
	s := &frame.Cursor{Data: b}
	n := s.U64()
	return n, !s.Short
}

type errorMsg struct {
	Code    uint8
	Message string
}

func encodeError(m errorMsg) []byte {
	var p frame.Buf
	p.U8(m.Code)
	p.Str(m.Message)
	return p.Bytes()
}

func decodeError(b []byte) (errorMsg, bool) {
	s := &frame.Cursor{Data: b}
	m := errorMsg{Code: s.U8(), Message: s.Str(MaxReasonLen)}
	return m, !s.Short
}
