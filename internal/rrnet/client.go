package rrnet

import (
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"sync"
	"time"

	"relaxreplay/internal/frame"
	"relaxreplay/internal/telemetry"
)

// Client dials rrproc and opens streaming sessions. One Client can
// open many sessions (sequentially or from separate goroutines) and
// holds one connection for its lifetime: a session that commits parks
// its connection on the Client, and the next session sends its hello
// on that connection instead of dialing. Sessions open at the same
// time each take their own connection, so a stalled session never
// head-of-line-blocks another; the Client keeps only one of them when
// they commit. No goroutine runs on a parked connection. Close closes
// it.
type Client struct {
	opts ClientOptions

	// Dial replaces the network dialer (test seam: wrap the conn in
	// WrapFaultConn, or return one end of net.Pipe).
	Dial func(addr string, timeout time.Duration) (net.Conn, error)

	mu     sync.Mutex
	idle   *clientConn // the connection a committed session parked; nil if none
	closed bool

	mChunks, mBytes, mRetries, mReconnects, mHeartbeats *telemetry.Counter
	gInflight                                           *telemetry.Gauge
}

// NewClient validates opts and builds a client. reg may be nil
// (metrics become no-ops).
func NewClient(opts ClientOptions, reg *telemetry.Registry) (*Client, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	return &Client{
		opts: opts,
		Dial: func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		},
		mChunks:     reg.Counter("rrnet.client.chunks"),
		mBytes:      reg.Counter("rrnet.client.bytes"),
		mRetries:    reg.Counter("rrnet.client.retries"),
		mReconnects: reg.Counter("rrnet.client.reconnects"),
		mHeartbeats: reg.Counter("rrnet.client.heartbeats"),
		gInflight:   reg.Gauge("rrnet.client.inflight"),
	}, nil
}

// park keeps the connection of a session that committed for the
// next session's hello. The Client keeps one: when another is already
// parked, or the Client is closed, cc closes instead.
func (c *Client) park(cc *clientConn) {
	c.mu.Lock()
	keep := !c.closed && c.idle == nil
	if keep {
		c.idle = cc
	}
	c.mu.Unlock()
	if !keep {
		cc.shutdown()
	}
}

// unpark takes the parked connection; nil when there is none. It may
// have died since: the handshake on it then fails at once.
func (c *Client) unpark() *clientConn {
	c.mu.Lock()
	defer c.mu.Unlock()
	cc := c.idle
	c.idle = nil
	return cc
}

// Close closes the parked connection. A session still open keeps its
// connection, and closes it at the end instead of parking it. The
// Client can still open sessions; they dial and never park.
func (c *Client) Close() {
	c.mu.Lock()
	c.closed = true
	cc := c.idle
	c.idle = nil
	c.mu.Unlock()
	if cc != nil {
		cc.shutdown()
	}
}

// Typed session-failure errors.
var (
	// ErrRetriesExhausted reports a session abandoned after MaxRetries
	// consecutive failures with no ack progress.
	ErrRetriesExhausted = errors.New("rrnet: retries exhausted")
	// ErrRejected reports a session the server refused: a hello or
	// commit answered with StatusReject, whose reason the error
	// carries. An error frame in reply to the handshake is not a
	// refusal (the server also sends one for a garbled preamble), so
	// the writer redials; a protocol-version mismatch therefore ends
	// in ErrRetriesExhausted.
	ErrRejected = errors.New("rrnet: session rejected by server")
	// ErrWriterClosed reports a Write after Close.
	ErrWriterClosed = errors.New("rrnet: session writer is closed")
)

// SessionResult summarizes a completed session.
type SessionResult struct {
	Status  uint8 // StatusOK, StatusDegraded or StatusReject
	Chunks  uint64
	Bytes   uint64
	Retries int    // reconnect attempts over the session's lifetime
	Missing uint64 // chunks the server never received
	Reason  string // server-side note on non-OK status
}

// entry is one sealed chunk awaiting durable ack.
type entry struct {
	seq  uint64
	data []byte
}

// SessionWriter streams one recording session to rrproc. It is an
// io.WriteCloser, so the natural use is handing it to WriteLog and
// letting the encoder stream straight onto the wire. Not safe for
// concurrent Writes.
type SessionWriter struct {
	c    *Client
	opts ClientOptions
	id   uint64

	buf     []byte  // accumulating unsealed chunk
	nextSeq uint64  // next seq to assign
	entries []entry // sealed chunks not yet durable (seq-ordered, all >= durable)
	contig  uint64  // server's cumulative ack; may rewind at a handshake
	durable uint64  // server's fsync'd prefix; monotonic, gates freeing
	sentTo  uint64  // next seq to (re)send on the current connection

	logLen uint64 // total bytes produced
	logCRC uint32 // CRC32C over every byte produced

	conn       *clientConn
	attempts   int // consecutive failures since last ack progress
	retries    int
	lastSend   time.Time
	flushReqAt uint64 // contig level a durability nudge was last sent at

	prng   uint64
	failed error
	closed bool
	res    SessionResult
}

// OpenSession opens session id, connecting eagerly (with the full
// retry/backoff machinery, so starting rrd before rrproc is fine).
func (c *Client) OpenSession(id uint64) (*SessionWriter, error) {
	sw := &SessionWriter{c: c, opts: c.opts, id: id, prng: c.opts.Seed}
	if sw.prng == 0 {
		sw.prng = id | 1
	}
	if err := sw.ensureConn(); err != nil {
		sw.cleanup()
		return nil, err
	}
	return sw, nil
}

// splitmix64: deterministic jitter source (same generator family as
// faultinject's per-point PRNG).
func (sw *SessionWriter) rand() uint64 {
	sw.prng += 0x9e3779b97f4a7c15
	z := sw.prng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// backoff returns the sleep before reconnect attempt n: base*2^n
// capped, then jittered into [d/2, d] so a fleet of rrds does not
// reconnect in lockstep.
func (sw *SessionWriter) backoff(attempt int) time.Duration {
	d := sw.opts.BackoffBase
	for i := 0; i < attempt && d < sw.opts.BackoffCap; i++ {
		d *= 2
	}
	if d > sw.opts.BackoffCap {
		d = sw.opts.BackoffCap
	}
	if d <= 0 {
		return 0
	}
	half := d / 2
	return half + time.Duration(sw.rand()%uint64(half+1))
}

// ensureConn returns with a live connection or a hard error. Each
// failed attempt sleeps the capped backoff; attempts reset only on
// ack progress (not on connect success — a server that accepts
// connections but never acks must still exhaust retries).
func (sw *SessionWriter) ensureConn() error {
	for sw.conn == nil || sw.conn.isDead() {
		if sw.conn != nil {
			sw.dropConn()
			sw.c.mReconnects.Inc(0)
		}
		if sw.attempts > sw.opts.MaxRetries {
			return fmt.Errorf("%w: session %d gave up after %d attempts",
				ErrRetriesExhausted, sw.id, sw.attempts)
		}
		if sw.attempts > 0 {
			sw.c.mRetries.Inc(0)
			sw.retries++
			time.Sleep(sw.backoff(sw.attempts - 1))
		}
		sw.attempts++
		if err := sw.connectOnce(); err != nil {
			if errors.Is(err, ErrRejected) {
				return err
			}
			continue
		}
	}
	return nil
}

// connectOnce opens the session on a connection: the one the Client
// has parked, else a fresh dial. A parked connection that is dead or
// fails its handshake costs nothing: the same attempt dials fresh. A
// refusal is final on either.
func (sw *SessionWriter) connectOnce() error {
	if cc := sw.c.unpark(); cc != nil {
		err := sw.handshake(cc.nc, cc.fr)
		if err == nil || errors.Is(err, ErrRejected) {
			return err
		}
	}
	nc, err := sw.c.Dial(sw.opts.Addr, sw.opts.DialTimeout)
	if err != nil {
		return err
	}
	if err := setWriteDeadline(nc, sw.opts.FrameTimeout); err != nil {
		closeConn(nc)
		return err
	}
	if err := writePreamble(nc); err != nil {
		closeConn(nc)
		return err
	}
	return sw.handshake(nc, frame.NewReader(nc, MaxWirePayload, 1<<20))
}

// handshake sends the hello on nc and reads the hello-ack on the
// calling goroutine; it is the one handshake for fresh and parked
// connections. A frame that comes before the hello-ack predates this
// session's hello (the connection's previous session left it unread),
// so it is dropped and counts for nothing. On success it adopts the
// server's contig (the resume point) and starts the session's reader;
// on failure it closes nc.
func (sw *SessionWriter) handshake(nc net.Conn, fr *frame.Reader) error {
	fail := func(err error) error {
		closeConn(nc)
		return err
	}
	if err := setDeadline(nc, sw.opts.FrameTimeout); err != nil {
		return fail(err)
	}
	hello := helloMsg{Proto: ProtoVersion, Session: sw.id, Resume: sw.contig > 0 || sw.nextSeq > 0, Tenant: sw.opts.Tenant}
	if err := writeFrame(nc, MsgHello, encodeHello(hello)); err != nil {
		return fail(err)
	}
	tp, payload, err := fr.Next()
	for err == nil && (MsgType(tp) == MsgAck || MsgType(tp) == MsgCommitAck || MsgType(tp) == MsgHeartbeatAck) {
		tp, payload, err = fr.Next()
	}
	if err != nil {
		return fail(err)
	}
	t := MsgType(tp)
	if t == MsgError {
		if em, ok := decodeError(payload); ok {
			return fail(fmt.Errorf("rrnet: handshake failed: %s", em.Message))
		}
		return fail(errors.New("rrnet: handshake failed: unreadable server error"))
	}
	ack, ok := helloAckMsg{}, false
	if t == MsgHelloAck {
		ack, ok = decodeHelloAck(payload)
	}
	if !ok {
		return fail(fmt.Errorf("rrnet: expected hello-ack, got %s", t))
	}
	if ack.Status == StatusReject {
		return fail(fmt.Errorf("%w: %s", ErrRejected, ack.Reason))
	}
	if err := setDeadline(nc, 0); err != nil {
		return fail(err)
	}
	// The handshake is the one place contig may REWIND: a restarted
	// rrproc recovers to its durable point, and everything past it
	// must be re-sent. durable itself never goes backward.
	sw.contig = ack.Contig
	sw.adoptDurable(ack.Durable)
	sw.sentTo = ack.Contig
	sw.conn = newClientConn(nc, fr)
	return nil
}

// adoptAcks folds an in-stream cumulative ack into the writer's
// state. Within one connection both values only advance. Returns true
// on any progress (which resets the retry budget).
func (sw *SessionWriter) adoptAcks(contig, durable uint64) bool {
	progress := false
	if contig > sw.contig {
		sw.contig = contig
		progress = true
	}
	if sw.adoptDurable(durable) {
		progress = true
	}
	return progress
}

// adoptDurable advances the crash-safe prefix, releasing every
// buffered entry below it.
func (sw *SessionWriter) adoptDurable(durable uint64) bool {
	if durable <= sw.durable {
		return false
	}
	sw.durable = durable
	n := 0
	for n < len(sw.entries) && sw.entries[n].seq < durable {
		n++
	}
	if n > 0 {
		copy(sw.entries, sw.entries[n:])
		for i := len(sw.entries) - n; i < len(sw.entries); i++ {
			sw.entries[i] = entry{}
		}
		sw.entries = sw.entries[:len(sw.entries)-n]
	}
	sw.gauge()
	return true
}

func (sw *SessionWriter) dropConn() {
	if sw.conn != nil {
		sw.conn.shutdown()
		sw.conn = nil
	}
}

func (sw *SessionWriter) gauge() { sw.c.gInflight.Set(0, uint64(len(sw.entries))) }

// Write accumulates log bytes, sealing and shipping a chunk whenever
// ChunkSize is reached. It implements io.Writer so WriteLog can
// stream directly.
func (sw *SessionWriter) Write(p []byte) (int, error) {
	if sw.closed {
		return 0, ErrWriterClosed
	}
	if sw.failed != nil {
		return 0, sw.failed
	}
	sw.buf = append(sw.buf, p...)
	for len(sw.buf) >= sw.opts.ChunkSize {
		data := make([]byte, sw.opts.ChunkSize)
		copy(data, sw.buf)
		rest := copy(sw.buf, sw.buf[sw.opts.ChunkSize:])
		sw.buf = sw.buf[:rest]
		if err := sw.seal(data); err != nil {
			sw.failed = err
			return 0, err
		}
	}
	return len(p), nil
}

// seal turns data into the next chunk, waits for room in the window
// when it is full, and pushes the wire forward.
func (sw *SessionWriter) seal(data []byte) error {
	seq := sw.nextSeq
	sw.nextSeq++
	sw.logLen += uint64(len(data))
	sw.logCRC = crc32.Update(sw.logCRC, frame.Castagnoli, data)
	sw.c.mChunks.Inc(0)
	sw.c.mBytes.Add(0, uint64(len(data)))

	if len(sw.entries) >= sw.opts.Window {
		if err := sw.waitForRoom(); err != nil {
			return err
		}
	}
	sw.entries = append(sw.entries, entry{seq: seq, data: data})
	sw.gauge()
	sw.pump()
	return nil
}

// pump makes best-effort forward progress without blocking the
// producer: drain any acks that arrived, then send every unsent entry
// if the connection is live. Send failures are not retried here —
// the entry stays pending, and waitDrain's reconnect re-delivers it.
func (sw *SessionWriter) pump() {
	sw.drainAcks()
	if sw.conn != nil && !sw.conn.isDead() {
		sw.sendReady()
	}
}

// sendReady ships entries from sentTo onward on the current
// connection, in seq order, capped to Window chunks past the
// cumulative ack. The writer never buffers more than Window entries,
// so the cap binds only after a resume against a server whose contig
// rewound below the durable prefix: the writer then runs no further
// ahead of what the server needs than one window, instead of flooding
// its reorder buffer.
func (sw *SessionWriter) sendReady() {
	for i := range sw.entries {
		e := &sw.entries[i]
		if e.seq < sw.sentTo {
			continue
		}
		if e.seq >= sw.contig+uint64(sw.opts.Window) {
			return
		}
		if err := sw.conn.writeMsg(MsgChunk, encodeChunk(chunkMsg{Session: sw.id, Seq: e.seq, Data: e.data}), sw.opts.FrameTimeout); err != nil {
			return // conn marked dead; reconnect path re-delivers
		}
		sw.lastSend = time.Now()
		sw.sentTo = e.seq + 1
	}
}

// drainAcks folds the reader goroutine's progress into the writer's
// state. Any advance resets the retry budget.
func (sw *SessionWriter) drainAcks() {
	if sw.conn == nil {
		return
	}
	contig, durable := sw.conn.acksNow()
	if sw.adoptAcks(contig, durable) {
		sw.attempts = 0
	}
}

// nudgeDurability asks the server to barrier when durability is the
// only thing holding the window: every sent chunk is acked (contig
// caught up with sentTo) but the fsync'd prefix lags. The heartbeat
// triggers the server's idle group-commit flush. Sent at most once
// per ack level, so the fsync rate stays about one per window drain.
func (sw *SessionWriter) nudgeDurability() {
	if sw.conn == nil || sw.conn.isDead() {
		return
	}
	if sw.durable >= sw.contig || sw.contig < sw.sentTo || sw.flushReqAt == sw.contig {
		return
	}
	if err := sw.conn.writeMsg(MsgHeartbeat, encodeNonce(sw.rand()), sw.opts.FrameTimeout); err == nil {
		sw.flushReqAt = sw.contig
		sw.lastSend = time.Now()
		sw.c.mHeartbeats.Inc(0)
	}
}

// waitForRoom blocks until the window has room, reconnecting on
// failure or ack stall. This is Write's slow path and the drain loop
// Close reuses (with room semantics replaced by empty).
func (sw *SessionWriter) waitForRoom() error {
	return sw.waitDrain(func() bool { return len(sw.entries) < sw.opts.Window })
}

func (sw *SessionWriter) waitDrain(done func() bool) error {
	stallStart := time.Now()
	for {
		sw.drainAcks()
		if done() {
			return nil
		}
		if err := sw.ensureConn(); err != nil {
			return err
		}
		sw.sendReady()
		if sw.conn.isDead() {
			continue
		}
		beforeC, beforeD := sw.contig, sw.durable
		sw.nudgeDurability()
		sw.heartbeatIfIdle()
		sw.conn.await(min(sw.opts.AckStall/4, 50*time.Millisecond))
		sw.drainAcks()
		if sw.contig > beforeC || sw.durable > beforeD {
			stallStart = time.Now()
			continue
		}
		if done() {
			return nil
		}
		if time.Since(stallStart) > sw.opts.AckStall {
			// No ack progress with chunks in flight: the stream (or
			// the server) silently lost frames. Reconnect; resume
			// re-delivers from the server's contig. Counts against
			// the retry budget so a live-but-never-acking server
			// still exhausts retries instead of looping forever.
			sw.dropConn()
			sw.c.mReconnects.Inc(0)
			sw.attempts++
			stallStart = time.Now()
		}
	}
}

// heartbeatIfIdle keeps a quiet connection warm so the server's idle
// timeout does not reap a session that is merely waiting for acks.
func (sw *SessionWriter) heartbeatIfIdle() {
	if sw.conn == nil || sw.conn.isDead() {
		return
	}
	if time.Since(sw.lastSend) < sw.opts.HeartbeatEvery {
		return
	}
	if err := sw.conn.writeMsg(MsgHeartbeat, encodeNonce(sw.rand()), sw.opts.FrameTimeout); err == nil {
		sw.lastSend = time.Now()
		sw.c.mHeartbeats.Inc(0)
	}
}

// Close seals the trailing chunk, drains every pending entry, commits
// the session, and waits for the server's verdict. The returned error
// is nil for both StatusOK and StatusDegraded — consult Result() —
// and non-nil only for rejection or transport failure.
func (sw *SessionWriter) Close() error {
	if sw.closed {
		return sw.failed
	}
	sw.closed = true
	defer sw.cleanup()
	if sw.failed != nil {
		return sw.failed
	}

	if len(sw.buf) > 0 {
		data := make([]byte, len(sw.buf))
		copy(data, sw.buf)
		sw.buf = nil
		if err := sw.seal(data); err != nil {
			sw.failed = err
			return err
		}
	}

	// Drain then commit, as one loop: a reconnect to a restarted
	// rrproc can rewind contig, so the drain condition is re-checked
	// before every commit attempt. The server checks its rolling CRC
	// against ours and classifies the session; re-sending the commit
	// after a reconnect is idempotent (a committed session replies
	// with its stored verdict).
	commit := commitMsg{Session: sw.id, Chunks: sw.nextSeq, LogLen: sw.logLen, LogCRC: sw.logCRC}
	for {
		if err := sw.waitDrain(func() bool { return sw.contig >= sw.nextSeq }); err != nil {
			sw.failed = err
			return err
		}
		if err := sw.ensureConn(); err != nil {
			sw.failed = err
			return err
		}
		if sw.contig < sw.nextSeq {
			continue // the reconnect handshake rewound contig; re-drain
		}
		if err := sw.conn.writeMsg(MsgCommit, encodeCommit(commit), sw.opts.FrameTimeout); err != nil {
			continue
		}
		ack, ok := sw.conn.awaitCommitAck(sw.opts.AckStall)
		if !ok {
			sw.dropConn()
			sw.attempts++ // commit round-trips must also exhaust eventually
			continue
		}
		sw.res = SessionResult{
			Status: ack.Status, Chunks: sw.nextSeq, Bytes: sw.logLen,
			Retries: sw.retries, Missing: ack.Missing, Reason: ack.Reason,
		}
		if ack.Status == StatusReject {
			sw.failed = fmt.Errorf("%w: %s", ErrRejected, ack.Reason)
			return sw.failed
		}
		// The verdict came back on this connection, and the reader
		// stops after it: leave the connection to the Client's next
		// session.
		<-sw.conn.done
		sw.c.park(sw.conn)
		sw.conn = nil
		return nil
	}
}

// Abort abandons the session without committing: the producer feeding
// Write failed upstream, so the streamed prefix is truncated. Close
// would drain and commit it — and since the rolling CRC covers only
// the bytes actually written, the server would classify the truncated
// session as healthy and journal it that way. Abort leaves the
// session uncommitted on the server instead, visible as such to
// rrproc -query and eligible for a later resume. No-op after Close.
func (sw *SessionWriter) Abort() {
	if sw.closed {
		return
	}
	sw.closed = true
	if sw.failed == nil {
		sw.failed = errors.New("rrnet: session aborted")
	}
	sw.cleanup()
}

// Result reports the session outcome; valid after Close.
func (sw *SessionWriter) Result() SessionResult { return sw.res }

func (sw *SessionWriter) cleanup() {
	sw.dropConn()
	sw.entries = nil
	sw.gauge()
}

// clientConn pairs the connection with a reader goroutine that folds
// server frames into shared state the writer polls. The reader serves
// one session: it stops when the connection fails, or right after the
// session's commit-ack, the last frame the server sends before the
// next hello, so a parked connection has no reader.
type clientConn struct {
	nc   net.Conn
	fr   *frame.Reader
	done chan struct{} // closed when the reader returns

	mu        sync.Mutex
	contig    uint64
	durable   uint64
	commitAck *commitAckMsg
	dead      bool
	sig       chan struct{}
}

func newClientConn(nc net.Conn, fr *frame.Reader) *clientConn {
	cc := &clientConn{nc: nc, fr: fr, done: make(chan struct{}), sig: make(chan struct{}, 1)}
	go cc.readLoop()
	return cc
}

func (cc *clientConn) readLoop() {
	defer close(cc.done)
	for {
		t, payload, err := cc.fr.Next()
		if err != nil {
			cc.mu.Lock()
			cc.dead = true
			cc.mu.Unlock()
			cc.wake()
			return
		}
		switch MsgType(t) {
		case MsgAck:
			if m, ok := decodeAck(payload); ok {
				cc.mu.Lock()
				if m.Contig > cc.contig {
					cc.contig = m.Contig
				}
				if m.Durable > cc.durable {
					cc.durable = m.Durable
				}
				cc.mu.Unlock()
				cc.wake()
			}
		case MsgCommitAck:
			if m, ok := decodeCommitAck(payload); ok {
				cc.mu.Lock()
				cc.commitAck = &m
				cc.mu.Unlock()
				cc.wake()
				return
			}
		case MsgHeartbeatAck:
			// Liveness only; deliberately does not count as ack
			// progress (a server that heartbeats but never acks is
			// still a stalled session).
		case MsgError:
			cc.mu.Lock()
			cc.dead = true
			cc.mu.Unlock()
			cc.wake()
			return
		}
	}
}

func (cc *clientConn) wake() {
	select {
	case cc.sig <- struct{}{}:
	default:
	}
}

func (cc *clientConn) acksNow() (contig, durable uint64) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.contig, cc.durable
}

func (cc *clientConn) isDead() bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.dead
}

// await blocks until the reader signals progress or d elapses.
func (cc *clientConn) await(d time.Duration) {
	if d <= 0 {
		d = time.Millisecond
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-cc.sig:
	case <-t.C:
	}
}

// awaitCommitAck waits up to d for the commit verdict.
func (cc *clientConn) awaitCommitAck(d time.Duration) (commitAckMsg, bool) {
	deadline := time.Now().Add(d)
	for {
		cc.mu.Lock()
		ack, dead := cc.commitAck, cc.dead
		cc.mu.Unlock()
		if ack != nil {
			return *ack, true
		}
		if dead || time.Now().After(deadline) {
			return commitAckMsg{}, false
		}
		cc.await(min(d/4, 50*time.Millisecond))
	}
}

// writeMsg writes one frame under a write deadline, marking the
// connection dead on any failure (including deadline setup — an
// unsettable deadline means the fd is already gone).
func (cc *clientConn) writeMsg(t MsgType, payload []byte, d time.Duration) error {
	if err := setWriteDeadline(cc.nc, d); err != nil {
		cc.markDead()
		return err
	}
	if err := writeFrame(cc.nc, t, payload); err != nil {
		cc.markDead()
		return err
	}
	return nil
}

func (cc *clientConn) markDead() {
	cc.mu.Lock()
	cc.dead = true
	cc.mu.Unlock()
	cc.wake()
}

func (cc *clientConn) shutdown() {
	cc.markDead()
	closeConn(cc.nc)
}

// setDeadline applies (or clears, d<=0 clears) a full deadline.
func setDeadline(nc net.Conn, d time.Duration) error {
	if d <= 0 {
		return nc.SetDeadline(time.Time{})
	}
	return nc.SetDeadline(time.Now().Add(d))
}

func setWriteDeadline(nc net.Conn, d time.Duration) error {
	if d <= 0 {
		return nc.SetWriteDeadline(time.Time{})
	}
	return nc.SetWriteDeadline(time.Now().Add(d))
}

// closeConn closes a connection whose close error has nowhere useful
// to go (teardown paths: the session outcome is already decided).
func closeConn(nc net.Conn) {
	_ = nc.Close() //rrlint:allow errcheck-io -- teardown close; the session outcome is already decided
}
