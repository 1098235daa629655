package rrnet

import (
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"relaxreplay/internal/frame"
	"relaxreplay/internal/telemetry"
)

// Server is the rrproc side: it accepts rrd connections, multiplexes
// N concurrent sessions into the journal, acks cumulatively, dedups
// re-delivered chunks, and classifies each session at commit.
//
// Lock order: sess.mu may be held while taking s.mu or jmu, never the
// reverse. Code holding s.mu touches sessions only through their
// atomic fields.
type Server struct {
	opts ServerOptions
	jr   *Journal
	jmu  sync.Mutex // serializes journal appends

	// jWatermark tracks, per session, how many chunks have been
	// written to the journal file — maintained under jmu, in write
	// order, so a snapshot taken under the same jmu hold as an fsync
	// barrier describes exactly the chunks that fsync covered.
	jWatermark map[uint64]uint64

	mu       sync.Mutex
	sessions map[uint64]*serverSession
	active   int // uncommitted sessions (MaxSessions bound)
	conns    map[net.Conn]struct{}
	draining bool
	closed   bool

	ln net.Listener
	wg sync.WaitGroup

	mChunks, mBytes, mDups, mReordered  *telemetry.Counter
	mCommits, mRejects, mResumes, mConn *telemetry.Counter
	gSessions                           *telemetry.Gauge
}

// serverSession is the per-session reassembly state. durable is an
// atomic so the post-fsync promotion sweep can run without taking
// every session's lock; everything else is under mu.
type serverSession struct {
	id      uint64
	durable atomic.Uint64 // chunks covered by an fsync'd segment

	mu      sync.Mutex
	tenant  string            // immutable once the session is published
	contig  uint64            // next seq needed
	crc     uint32            // rolling CRC32C over in-order payloads
	bytes   uint64            // in-order payload bytes received
	gaps    uint64            // tombstone (0-byte) chunks seen
	pending map[uint64][]byte // bounded out-of-order buffer

	committed bool
	verdict   commitAckMsg
}

// NewServer validates opts, opens (recovering) the journal, and
// restores any uncommitted sessions so clients can resume across an
// rrproc restart. It does not listen yet; call Serve or ServeConn.
func NewServer(opts ServerOptions, reg *telemetry.Registry) (*Server, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	jr, err := OpenJournal(opts.JournalPath, opts.FsyncEveryBytes)
	if err != nil {
		return nil, err
	}
	s := &Server{
		opts:       opts,
		jr:         jr,
		jWatermark: make(map[uint64]uint64),
		sessions:   make(map[uint64]*serverSession),
		conns:      make(map[net.Conn]struct{}),

		mChunks:    reg.Counter("rrnet.server.chunks"),
		mBytes:     reg.Counter("rrnet.server.bytes"),
		mDups:      reg.Counter("rrnet.server.chunks-duplicate"),
		mReordered: reg.Counter("rrnet.server.chunks-reordered"),
		mCommits:   reg.Counter("rrnet.server.commits"),
		mRejects:   reg.Counter("rrnet.server.rejects"),
		mResumes:   reg.Counter("rrnet.server.resumes"),
		mConn:      reg.Counter("rrnet.server.conns"),
		gSessions:  reg.Gauge("rrnet.server.sessions"),
	}
	if err := s.recover(); err != nil {
		closeJournal(jr)
		return nil, err
	}
	return s, nil
}

// recover rebuilds in-memory session state from the journal, so a
// restarted rrproc re-offers each session's contiguous prefix instead
// of forcing a from-scratch re-stream.
func (s *Server) recover() error {
	v, err := ReadJournal(s.opts.JournalPath)
	if err != nil {
		return err
	}
	for _, id := range v.Order {
		js := v.Sessions[id]
		ss := &serverSession{
			id: id, tenant: js.Tenant,
			contig:  js.Chunks,
			bytes:   uint64(len(js.Data)),
			crc:     crc32.Checksum(js.Data, frame.Castagnoli),
			pending: make(map[uint64][]byte),
		}
		ss.durable.Store(js.Durable)
		s.jWatermark[id] = js.Chunks
		if js.Committed {
			ss.committed = true
			ss.verdict = commitAckMsg{Session: id, Status: js.Status, Missing: js.Missing, Reason: js.Reason}
		} else {
			s.active++
		}
		s.sessions[id] = ss
	}
	s.gSessions.Set(0, uint64(len(s.sessions)))
	return nil
}

// Serve accepts connections on ln until Shutdown. It owns ln.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("rrnet: server is shut down")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining || s.closed
			s.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		if !s.track(nc) {
			closeConn(nc)
			continue
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.ServeConn(nc)
		}()
	}
}

// Listen binds opts.Addr and serves on it.
func (s *Server) Listen() error {
	ln, err := net.Listen("tcp", s.opts.Addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr returns the bound listen address (for :0 test listeners).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

func (s *Server) track(nc net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.closed {
		return false
	}
	s.conns[nc] = struct{}{}
	return true
}

func (s *Server) untrack(nc net.Conn) {
	s.mu.Lock()
	delete(s.conns, nc)
	s.mu.Unlock()
}

// ServeConn runs one connection to completion (also the test entry
// point for net.Pipe ends). Closes nc before returning.
func (s *Server) ServeConn(nc net.Conn) {
	defer closeConn(nc)
	defer s.untrack(nc)
	s.mConn.Inc(0)
	if err := s.readDeadline(nc); err != nil {
		return
	}
	if err := readPreamble(nc); err != nil {
		s.sendError(nc, 1, err.Error())
		return
	}
	fr := frame.NewReader(nc, MaxWirePayload, 1<<20)
	var sess *serverSession
	for {
		if err := s.readDeadline(nc); err != nil {
			return
		}
		t, payload, err := fr.Next()
		if err != nil {
			return
		}
		switch MsgType(t) {
		case MsgHello:
			m, ok := decodeHello(payload)
			if !ok || m.Proto != ProtoVersion {
				s.sendError(nc, 1, "malformed hello")
				return
			}
			var reject string
			sess, reject = s.adoptSession(m)
			if sess == nil {
				s.mRejects.Inc(0)
				s.writeMsg(nc, MsgHelloAck, encodeHelloAck(helloAckMsg{Status: StatusReject, Reason: reject}))
				return
			}
			sess.mu.Lock()
			ack := helloAckMsg{Status: StatusOK, Contig: sess.contig, Durable: sess.durable.Load()}
			sess.mu.Unlock()
			if m.Resume {
				s.mResumes.Inc(0)
			}
			if !s.writeMsg(nc, MsgHelloAck, encodeHelloAck(ack)) {
				return
			}
		case MsgChunk:
			if sess == nil {
				s.sendError(nc, 2, "chunk before hello")
				return
			}
			m, ok := decodeChunk(payload)
			if !ok || m.Session != sess.id {
				continue // damaged or misrouted; the cumulative ack re-delivers
			}
			if s.opts.SlowConsumer > 0 {
				time.Sleep(s.opts.SlowConsumer)
			}
			contig, durable, err := s.applyChunk(sess, m.Seq, m.Data)
			if err != nil {
				s.sendError(nc, 3, "journal write failed: "+err.Error())
				return
			}
			if !s.writeMsg(nc, MsgAck, encodeAck(ackMsg{Session: sess.id, Contig: contig, Durable: durable})) {
				return
			}
		case MsgCommit:
			if sess == nil {
				s.sendError(nc, 2, "commit before hello")
				return
			}
			m, ok := decodeCommit(payload)
			if !ok || m.Session != sess.id {
				continue
			}
			ack, err := s.commitSession(sess, m)
			if err != nil {
				s.sendError(nc, 3, "journal commit failed: "+err.Error())
				return
			}
			if !s.writeMsg(nc, MsgCommitAck, encodeCommitAck(ack)) {
				return
			}
		case MsgHeartbeat:
			// A heartbeat means the client is idle — usually stalled
			// waiting for durability. Group-commit: barrier any unsynced
			// journal bytes now and re-ack with the advanced durable
			// point, so a window gated on durability can never deadlock
			// against a byte-threshold fsync cadence (the wedge: window
			// full -> no new chunks -> threshold never reached -> durable
			// never advances -> window never drains).
			if sess != nil {
				if err := s.flushIdle(); err != nil {
					s.sendError(nc, 3, "journal flush failed: "+err.Error())
					return
				}
				sess.mu.Lock()
				ack := ackMsg{Session: sess.id, Contig: sess.contig, Durable: sess.durable.Load()}
				sess.mu.Unlock()
				if !s.writeMsg(nc, MsgAck, encodeAck(ack)) {
					return
				}
			}
			if nonce, ok := decodeNonce(payload); ok {
				if !s.writeMsg(nc, MsgHeartbeatAck, encodeNonce(nonce)) {
					return
				}
			}
		default:
			// Unknown-but-intact frame: skip (forward compatibility).
		}
	}
}

// adoptSession resolves a hello to its session, creating one if new.
// A hello for an existing session is always treated as a resume
// regardless of the Resume flag — a retried first-connect whose
// hello-ack was lost looks like a fresh hello for a session the
// server already has.
func (s *Server) adoptSession(m helloMsg) (*serverSession, string) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, "server is draining"
	}
	if sess := s.sessions[m.Session]; sess != nil {
		// tenant is immutable after publication, so this read needs no
		// sess.mu (taking it here would also invert the documented
		// sess.mu -> s.mu lock order).
		tenant := sess.tenant
		s.mu.Unlock()
		if tenant != m.Tenant {
			// Session-ID collision between two rrd hosts (IDs default
			// to wall-clock nanos): adopting would silently merge the
			// streams — the second client's chunks ack as duplicates
			// and vanish, and its commit could poison the first
			// session's verdict.
			return nil, fmt.Sprintf("session %d belongs to tenant %q, not %q", m.Session, tenant, m.Tenant)
		}
		return sess, ""
	}
	if s.active >= s.opts.MaxSessions {
		n := s.active
		s.mu.Unlock()
		return nil, fmt.Sprintf("session limit reached (%d active)", n)
	}
	sess := &serverSession{id: m.Session, tenant: m.Tenant, pending: make(map[uint64][]byte)}
	s.sessions[m.Session] = sess
	s.active++
	s.gSessions.Set(0, uint64(len(s.sessions)))
	s.mu.Unlock()

	snap, err := s.journalSession(m.Session, m.Tenant)
	if err != nil {
		s.mu.Lock()
		delete(s.sessions, m.Session)
		s.active--
		s.mu.Unlock()
		return nil, "journal write failed"
	}
	s.promoteDurable(snap)
	return sess, ""
}

// applyChunk folds one chunk into the session: duplicates are acked
// and dropped, in-order chunks extend the prefix (and drain the
// reorder buffer behind them), bounded-out-of-order chunks are held,
// and anything beyond the reorder window is discarded — the client's
// ack-stall reconnect re-delivers it.
func (s *Server) applyChunk(sess *serverSession, seq uint64, data []byte) (contig, durable uint64, err error) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.committed {
		return sess.contig, sess.durable.Load(), nil
	}
	switch {
	case seq < sess.contig:
		s.mDups.Inc(0)
	case seq == sess.contig:
		//rrlint:allow blockinglock -- journal-first durability: the group-commit fsync barrier runs under sess.mu by design (DESIGN §17)
		if err := s.extend(sess, data); err != nil {
			return sess.contig, sess.durable.Load(), err
		}
		for {
			next, ok := sess.pending[sess.contig]
			if !ok {
				break
			}
			delete(sess.pending, sess.contig)
			//rrlint:allow blockinglock -- same barrier as above for the reordered-chunk drain
			if err := s.extend(sess, next); err != nil {
				return sess.contig, sess.durable.Load(), err
			}
		}
	default: // seq > contig: out of order
		if seq-sess.contig <= uint64(s.opts.ReorderWindow) && len(sess.pending) < s.opts.ReorderWindow {
			if _, dup := sess.pending[seq]; !dup {
				cp := make([]byte, len(data))
				copy(cp, data)
				sess.pending[seq] = cp
				s.mReordered.Inc(0)
			}
		}
		// else: beyond the window — discard; cumulative ack recovers.
	}
	return sess.contig, sess.durable.Load(), nil
}

// extend appends one in-order chunk: journal first, then account.
// Caller holds sess.mu.
func (s *Server) extend(sess *serverSession, data []byte) error {
	snap, err := s.journalChunk(sess.id, sess.contig, data)
	if err != nil {
		return err
	}
	sess.crc = crc32.Update(sess.crc, frame.Castagnoli, data)
	sess.bytes += uint64(len(data))
	if len(data) == 0 {
		sess.gaps++
	}
	sess.contig++
	s.mChunks.Inc(0)
	s.mBytes.Add(0, uint64(len(data)))
	s.promoteDurable(snap)
	return nil
}

// flushIdle barriers the journal if it holds unsynced bytes and
// promotes every session's durable point. Called from the heartbeat
// path: it is the idle half of group commit (the busy half is the
// FsyncEveryBytes threshold inside extend).
func (s *Server) flushIdle() error {
	s.jmu.Lock()
	var snap map[uint64]uint64
	var err error
	if s.jr.sinceSync > 0 {
		//rrlint:allow blockinglock -- jmu exists to serialize the journal; the idle-flush fsync must run under it
		if err = s.jr.barrier(); err == nil {
			snap = s.watermarksLocked()
		}
	}
	s.jmu.Unlock()
	if err != nil {
		return err
	}
	s.promoteDurable(snap)
	return nil
}

// watermarksLocked snapshots every session's journaled chunk count.
// Caller holds jmu, and must have held it continuously since the
// fsync barrier the snapshot describes.
func (s *Server) watermarksLocked() map[uint64]uint64 {
	snap := make(map[uint64]uint64, len(s.jWatermark))
	for id, n := range s.jWatermark {
		snap[id] = n
	}
	return snap
}

// promoteDurable marks each snapshotted session's fsync-covered chunk
// prefix durable. snap must be a watermarksLocked snapshot taken under
// the same jmu hold as the barrier: promoting from live counters after
// releasing jmu would let a chunk journaled between the fsync and the
// sweep be acked durable un-fsynced — the client frees its copy, and a
// crash before the next fsync loses the chunk permanently. Touches
// only the durable atomics, so holding a sess.mu while calling is
// fine. A nil snap (no barrier fired) is a no-op.
func (s *Server) promoteDurable(snap map[uint64]uint64) {
	if len(snap) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, n := range snap {
		if sess := s.sessions[id]; sess != nil {
			storeMax(&sess.durable, n)
		}
	}
}

// storeMax advances a monotonically: promotion sweeps run outside
// jmu, so an older barrier's snapshot can be applied after a newer
// one's and must not rewind it.
func storeMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// commitSession classifies the session against the client's commit
// declaration and journals the verdict (fsync'd before the ack):
//
//   - identical: no shed chunks, every chunk present, byte count and
//     rolling CRC match the client's — the journaled bytes are the
//     client's WriteLog output, bit for bit.
//   - degraded-with-report: the client shed chunks under Drop policy
//     (tombstones leave gaps), or chunks never arrived; the gap count
//     travels in the verdict.
//   - rejected: everything arrived but the bytes disagree with the
//     client's CRC — corruption survived the per-frame checks, so the
//     session must not be trusted.
//
// Recommitting a committed session returns the stored verdict.
func (s *Server) commitSession(sess *serverSession, m commitMsg) (commitAckMsg, error) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.committed {
		return sess.verdict, nil
	}
	ack := commitAckMsg{Session: sess.id}
	missing := uint64(0)
	if m.Chunks > sess.contig {
		missing = m.Chunks - sess.contig
	}
	switch {
	case m.NDrop == 0 && missing == 0 && sess.bytes == m.LogLen && sess.crc == m.LogCRC && sess.gaps == 0:
		ack.Status = StatusOK
	case m.NDrop > 0 || missing > 0 || sess.gaps > 0:
		ack.Status = StatusDegraded
		ack.Missing = m.NDrop + missing
		ack.Reason = fmt.Sprintf("%d chunks shed by client, %d never arrived", m.NDrop, missing)
	default:
		ack.Status = StatusReject
		ack.Reason = fmt.Sprintf("content mismatch: %d/%d bytes, crc %08x/%08x (journal/client)",
			sess.bytes, m.LogLen, sess.crc, m.LogCRC)
		s.mRejects.Inc(0)
	}
	s.jmu.Lock()
	//rrlint:allow blockinglock -- the COMMIT record must be durable before the ack leaves; fsync under jmu is the contract
	err := s.jr.Commit(sess.id, ack.Status, m.Chunks, m.LogLen, m.LogCRC, m.NDrop, ack.Missing, ack.Reason)
	var snap map[uint64]uint64
	if err == nil {
		snap = s.watermarksLocked() // Commit always barriers
	}
	s.jmu.Unlock()
	if err != nil {
		return ack, err
	}
	sess.committed = true
	sess.verdict = ack
	sess.pending = nil
	s.promoteDurable(snap)
	s.mu.Lock()
	s.active--
	s.mu.Unlock()
	s.mCommits.Inc(0)
	return ack, nil
}

// journalSession and journalChunk append one record each. When the
// append crossed the fsync threshold they return the watermark
// snapshot to promote (captured before jmu is released, so it covers
// exactly what the fsync wrote); nil otherwise.
func (s *Server) journalSession(id uint64, tenant string) (map[uint64]uint64, error) {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	//rrlint:allow blockinglock -- journal append may group-commit fsync; jmu serializes the journal by design
	synced, err := s.jr.Session(id, tenant)
	if err != nil {
		return nil, err
	}
	if _, ok := s.jWatermark[id]; !ok {
		s.jWatermark[id] = 0
	}
	if !synced {
		return nil, nil
	}
	return s.watermarksLocked(), nil
}

func (s *Server) journalChunk(id, seq uint64, data []byte) (map[uint64]uint64, error) {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	//rrlint:allow blockinglock -- journal append may group-commit fsync; jmu serializes the journal by design
	synced, err := s.jr.Chunk(id, seq, data)
	if err != nil {
		return nil, err
	}
	s.jWatermark[id] = seq + 1
	if !synced {
		return nil, nil
	}
	return s.watermarksLocked(), nil
}

// writeMsg writes one frame under the write deadline; false marks the
// connection unusable (caller returns, client reconnects).
func (s *Server) writeMsg(nc net.Conn, t MsgType, payload []byte) bool {
	if err := setWriteDeadline(nc, s.opts.FrameTimeout); err != nil {
		return false
	}
	return writeFrame(nc, t, payload) == nil
}

func (s *Server) sendError(nc net.Conn, code uint8, msg string) {
	s.writeMsg(nc, MsgError, encodeError(errorMsg{Code: code, Message: msg}))
}

// readDeadline arms the per-frame read deadline; an idle connection
// (no chunks, no heartbeats) is reaped after FrameTimeout.
func (s *Server) readDeadline(nc net.Conn) error {
	return nc.SetReadDeadline(time.Now().Add(s.opts.FrameTimeout))
}

// Shutdown drains gracefully: stop accepting, give in-flight
// connections DrainTimeout to finish, then cut them, barrier the
// journal, and close it. Safe to call more than once.
func (s *Server) Shutdown() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		_ = ln.Close() // unblocks Accept; the error has no consumer
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	t := time.NewTimer(s.opts.DrainTimeout)
	defer t.Stop()
	select {
	case <-done:
	case <-t.C:
		s.mu.Lock()
		for nc := range s.conns {
			closeConn(nc)
		}
		s.mu.Unlock()
		<-done
	}

	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.jmu.Lock()
	defer s.jmu.Unlock()
	//rrlint:allow blockinglock -- shutdown's final fsync; nothing else can hold jmu once closed is set
	return s.jr.Close()
}

func closeJournal(j *Journal) {
	_ = j.Close()
}
