package relaxreplay

// Streaming facade: record on one machine, journal on another.
//
// The rrnet package implements a fault-tolerant 1:N record-and-replay
// streaming service: rrd (the recorder-side agent) opens a session
// against rrproc (the central processor), streams the v3 log over a
// CRC-framed wire protocol with retry/backoff/resume, and rrproc
// multiplexes every tenant into a crash-safe append-only journal.
// This file re-exports the small surface a caller needs; the daemons
// under cmd/rrd and cmd/rrproc are thin wrappers over it.

import (
	"io"
	"net"

	"relaxreplay/internal/rrnet"
	"relaxreplay/internal/telemetry"
)

// StreamClient dials rrproc and opens sessions.
type StreamClient = rrnet.Client

// StreamClientOptions configures a StreamClient (address, chunking,
// retry budget, backpressure policy).
type StreamClientOptions = rrnet.ClientOptions

// StreamSession is one in-flight session: an io.WriteCloser that is
// natural to hand to WriteLog.
type StreamSession = rrnet.SessionWriter

// StreamResult summarizes a committed session.
type StreamResult = rrnet.SessionResult

// StreamServer is the rrproc side: accepts sessions, journals them.
type StreamServer = rrnet.Server

// StreamServerOptions configures a StreamServer (listen address,
// journal path, session and reorder bounds, fsync cadence).
type StreamServerOptions = rrnet.ServerOptions

// BackpressurePolicy picks what a session does when the send window
// is full: block the recorder, drop chunks (degraded commit), or
// spill them to disk.
type BackpressurePolicy = rrnet.BackpressurePolicy

// Backpressure policies.
const (
	BackpressureBlock = rrnet.Block
	BackpressureDrop  = rrnet.Drop
	BackpressureSpill = rrnet.Spill
)

// Session commit statuses (StreamResult.Status and journal verdicts).
const (
	StreamStatusOK       = rrnet.StatusOK
	StreamStatusDegraded = rrnet.StatusDegraded
	StreamStatusReject   = rrnet.StatusReject
)

// ParseBackpressure parses "block", "drop" or "spill".
func ParseBackpressure(s string) (BackpressurePolicy, error) {
	return rrnet.ParseBackpressure(s)
}

// NewStreamClient validates opts and builds a client. reg may be nil.
func NewStreamClient(opts StreamClientOptions, reg *telemetry.Registry) (*StreamClient, error) {
	return rrnet.NewClient(opts, reg)
}

// NewStreamServer opens (or recovers) the journal and builds a
// server; call Serve/Listen to accept sessions and Shutdown to drain.
func NewStreamServer(opts StreamServerOptions, reg *telemetry.Registry) (*StreamServer, error) {
	return rrnet.NewServer(opts, reg)
}

// JournalView is the recovered state of an rrproc journal.
type JournalView = rrnet.JournalView

// JournalSession is one session's recovered state inside a JournalView.
type JournalSession = rrnet.JournalSession

// ReadStreamJournal scans an rrproc journal, salvaging everything
// recoverable (torn tails and duplicated records are tolerated and
// reported, mirroring ReadLogRobust for local logs).
func ReadStreamJournal(path string) (*JournalView, error) {
	return rrnet.ReadJournal(path)
}

// WrapStreamConn attaches the injector's net.* fault points to a
// connection's write path (the chaos transport). A nil injector
// returns nc unchanged. Install it via StreamClient.Dial.
func WrapStreamConn(nc net.Conn, inj *FaultInjector) net.Conn {
	return rrnet.WrapFaultConn(nc, inj)
}

// StreamLogV3 encodes the recording as a v3 log directly onto an open
// stream session and commits it. On success the returned result says
// whether the journaled copy is byte-identical (StreamStatusOK) or
// degraded with a report. The session is consumed either way.
func (r *Recording) StreamLogV3(sw *StreamSession) (StreamResult, error) {
	if err := r.WriteLog(sw); err != nil {
		// Abort, not Close: committing the truncated prefix would
		// journal it as a healthy session.
		sw.Abort()
		return sw.Result(), err
	}
	err := sw.Close()
	return sw.Result(), err
}

var _ io.WriteCloser = (*StreamSession)(nil)
