package rrnet

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"relaxreplay/internal/faultinject"
	"relaxreplay/internal/frame"
	"relaxreplay/internal/telemetry"
)

// fastClient returns ClientOptions tuned for test speed: millisecond
// backoffs, small chunks, tight stall detection.
func fastClient(addr string) ClientOptions {
	return ClientOptions{
		Addr:           addr,
		Tenant:         "test",
		ChunkSize:      512,
		Window:         8,
		MaxRetries:     6,
		BackoffBase:    2 * time.Millisecond,
		BackoffCap:     20 * time.Millisecond,
		DialTimeout:    500 * time.Millisecond,
		FrameTimeout:   2 * time.Second,
		HeartbeatEvery: 100 * time.Millisecond,
		AckStall:       300 * time.Millisecond,
		Seed:           42,
	}
}

func fastServer(journal string) ServerOptions {
	return ServerOptions{
		Addr:            "127.0.0.1:0",
		JournalPath:     journal,
		MaxSessions:     8,
		ReorderWindow:   16,
		FrameTimeout:    2 * time.Second,
		DrainTimeout:    2 * time.Second,
		FsyncEveryBytes: 4 << 10,
	}
}

// startServer builds a server on an ephemeral port and serves it in
// the background; returns the server and its dial address.
func startServer(t *testing.T, opts ServerOptions) (*Server, string) {
	t.Helper()
	return startServerReg(t, opts, nil)
}

// startServerReg is startServer with the server's metrics in reg.
func startServerReg(t *testing.T, opts ServerOptions, reg *telemetry.Registry) (*Server, string) {
	t.Helper()
	s, err := NewServer(opts, reg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go func() {
		if err := s.Serve(ln); err != nil {
			t.Logf("serve: %v", err)
		}
	}()
	return s, ln.Addr().String()
}

// testPayload builds deterministic pseudo-random bytes.
func testPayload(n int, seed uint64) []byte {
	out := make([]byte, n)
	state := seed
	for i := range out {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		out[i] = byte(z ^ (z >> 31))
	}
	return out
}

// streamAll writes payload through the session in uneven pieces.
func streamAll(t *testing.T, sw *SessionWriter, payload []byte) {
	t.Helper()
	step := 700 // deliberately not a chunk multiple
	for off := 0; off < len(payload); off += step {
		end := min(off+step, len(payload))
		if _, err := sw.Write(payload[off:end]); err != nil {
			t.Fatalf("Write at %d: %v", off, err)
		}
	}
}

func TestOptionsValidate(t *testing.T) {
	base := fastClient("x:1")
	if err := base.Validate(); err != nil {
		t.Fatalf("valid client options rejected: %v", err)
	}
	clientCases := map[string]func(*ClientOptions){
		"empty addr":       func(o *ClientOptions) { o.Addr = "" },
		"negative chunk":   func(o *ClientOptions) { o.ChunkSize = -1 },
		"oversize chunk":   func(o *ClientOptions) { o.ChunkSize = MaxWirePayload },
		"negative window":  func(o *ClientOptions) { o.Window = -3 },
		"negative retries": func(o *ClientOptions) { o.MaxRetries = -1 },
		"negative backoff": func(o *ClientOptions) { o.BackoffBase = -time.Second },
		"cap below base":   func(o *ClientOptions) { o.BackoffBase = time.Second; o.BackoffCap = time.Millisecond },
		"negative timeout": func(o *ClientOptions) { o.FrameTimeout = -1 },
	}
	for name, mutate := range clientCases {
		o := base
		mutate(&o)
		if err := o.Validate(); !errors.Is(err, ErrBadOptions) {
			t.Errorf("client %s: want ErrBadOptions, got %v", name, err)
		}
	}

	sbase := fastServer("/tmp/j")
	if err := sbase.Validate(); err != nil {
		t.Fatalf("valid server options rejected: %v", err)
	}
	serverCases := map[string]func(*ServerOptions){
		"empty addr":        func(o *ServerOptions) { o.Addr = "" },
		"empty journal":     func(o *ServerOptions) { o.JournalPath = "" },
		"negative sessions": func(o *ServerOptions) { o.MaxSessions = -1 },
		"negative reorder":  func(o *ServerOptions) { o.ReorderWindow = -1 },
		"negative fsync":    func(o *ServerOptions) { o.FsyncEveryBytes = -1 },
		"negative drain":    func(o *ServerOptions) { o.DrainTimeout = -time.Second },
	}
	for name, mutate := range serverCases {
		o := sbase
		mutate(&o)
		if err := o.Validate(); !errors.Is(err, ErrBadOptions) {
			t.Errorf("server %s: want ErrBadOptions, got %v", name, err)
		}
	}
}

// TestFrameResync proves the wire reader skips garbage and corrupt
// frames and still delivers the intact ones — the same salvage
// discipline as the log decoder.
func TestFrameResync(t *testing.T) {
	var stream []byte
	stream = append(stream, []byte("leading garbage")...)
	stream = append(stream, frameBytes(MsgHeartbeat, encodeNonce(7))...)
	stream = append(stream, 0xF5, 'R', 'F') // sync-word prefix tease
	corrupt := frameBytes(MsgChunk, encodeChunk(chunkMsg{Session: 1, Seq: 0, Data: []byte("x")}))
	corrupt[len(corrupt)-1] ^= 0xFF // break the CRC
	stream = append(stream, corrupt...)
	stream = append(stream, frameBytes(MsgAck, encodeAck(ackMsg{Session: 1, Contig: 5, Durable: 3}))...)

	fr := frame.NewReader(bytes.NewReader(stream), MaxWirePayload, 0)
	tp, payload, err := fr.Next()
	if err != nil || MsgType(tp) != MsgHeartbeat {
		t.Fatalf("first frame: %v %v", tp, err)
	}
	if n, ok := decodeNonce(payload); !ok || n != 7 {
		t.Fatalf("nonce: %d %v", n, ok)
	}
	tp, payload, err = fr.Next()
	if err != nil || MsgType(tp) != MsgAck {
		t.Fatalf("second frame: %v %v", tp, err)
	}
	if m, ok := decodeAck(payload); !ok || m.Contig != 5 || m.Durable != 3 {
		t.Fatalf("ack: %+v %v", m, ok)
	}
	if fr.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1 (the corrupted chunk)", fr.Dropped)
	}
	if fr.Skipped == 0 {
		t.Error("Skipped = 0, want > 0 (the leading garbage)")
	}
	if _, _, err := fr.Next(); err == nil {
		t.Error("expected EOF-ish error at stream end")
	}
}

// TestEndToEnd is the happy path: one session over real TCP, journal
// holds byte-identical content, verdict is identical.
func TestEndToEnd(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "j.rrjl")
	s, addr := startServer(t, fastServer(jpath))

	c, err := NewClient(fastClient(addr), nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := testPayload(20<<10, 1)
	sw, err := c.OpenSession(100)
	if err != nil {
		t.Fatal(err)
	}
	streamAll(t, sw, payload)
	if err := sw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if res := sw.Result(); res.Status != StatusOK {
		t.Fatalf("status = %d (%s), want OK", res.Status, res.Reason)
	}
	if err := s.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	v, err := ReadJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	sess := v.Sessions[100]
	if sess == nil {
		t.Fatal("session 100 missing from journal")
	}
	if err := sess.Verify(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sess.Data, payload) {
		t.Fatalf("journal bytes differ: %d vs %d", len(sess.Data), len(payload))
	}
	if v.TornTail || v.DroppedFrames != 0 || v.SkippedBytes != 0 {
		t.Errorf("unexpected salvage: %+v", v)
	}
}

// TestConcurrentSessions multiplexes two sessions of one Client into
// one journal. Sessions open at the same time each get their own
// connection: in the first round both dial, and when they commit the
// Client parks one connection and closes the other; in the second
// round one session takes the parked connection and the other dials,
// so the server sees three in all.
func TestConcurrentSessions(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "j.rrjl")
	reg := telemetry.NewRegistry(1)
	s, addr := startServerReg(t, fastServer(jpath), reg)

	c, err := NewClient(fastClient(addr), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var dialedMu sync.Mutex
	var dialed []*closeSpy
	c.Dial = func(a string, d time.Duration) (net.Conn, error) {
		nc, err := net.DialTimeout("tcp", a, d)
		if err != nil {
			return nil, err
		}
		spy := &closeSpy{Conn: nc}
		dialedMu.Lock()
		dialed = append(dialed, spy)
		dialedMu.Unlock()
		return spy, nil
	}
	payloads := map[uint64][]byte{
		201: testPayload(16<<10, 11),
		202: testPayload(24<<10, 22),
		203: testPayload(12<<10, 33),
		204: testPayload(20<<10, 44),
	}
	for _, round := range [][]uint64{{201, 202}, {203, 204}} {
		var wg, opened sync.WaitGroup
		opened.Add(len(round))
		conns := make([]net.Conn, len(round))
		errs := make(chan error, len(round))
		for i, id := range round {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sw, err := c.OpenSession(id)
				if err == nil {
					conns[i] = sw.conn.nc
				}
				// Neither session commits, and so parks its connection,
				// before both have opened.
				opened.Done()
				opened.Wait()
				if err != nil {
					errs <- err
					return
				}
				payload := payloads[id]
				for off := 0; off < len(payload); off += 900 {
					end := min(off+900, len(payload))
					if _, err := sw.Write(payload[off:end]); err != nil {
						errs <- err
						return
					}
				}
				if err := sw.Close(); err != nil {
					errs <- err
					return
				}
				if res := sw.Result(); res.Status != StatusOK {
					errs <- fmt.Errorf("session %d: status %d (%s)", id, res.Status, res.Reason)
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if conns[0] == conns[1] {
			t.Fatalf("sessions %v shared one connection", round)
		}
		parked := parkedConn(c)
		if parked == nil {
			t.Fatalf("after sessions %v the client parks no connection", round)
		}
		for i, spy := range dialed {
			if open := net.Conn(spy) == parked.nc; spy.closed.Load() == open {
				t.Fatalf("after sessions %v connection %d: closed %v, parked %v; want every connection but the parked one closed", round, i, spy.closed.Load(), open)
			}
		}
	}
	if n := reg.Counter("rrnet.server.conns").Value(); n != 3 {
		t.Fatalf("two rounds of two concurrent sessions used %d connections, want 3", n)
	}
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	v, err := ReadJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	for id, payload := range payloads {
		sess := v.Sessions[id]
		if sess == nil {
			t.Fatalf("session %d missing", id)
		}
		if err := sess.Verify(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sess.Data, payload) {
			t.Fatalf("session %d bytes differ", id)
		}
	}
}

// TestResumeAfterConnCut severs the connection mid-stream; the client
// must reconnect, resume from the server's contig, and still land an
// identical session.
func TestResumeAfterConnCut(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "j.rrjl")
	s, addr := startServer(t, fastServer(jpath))

	c, err := NewClient(fastClient(addr), nil)
	if err != nil {
		t.Fatal(err)
	}
	var cur atomic.Pointer[net.Conn]
	base := c.Dial
	c.Dial = func(a string, d time.Duration) (net.Conn, error) {
		nc, err := base(a, d)
		if err == nil {
			cur.Store(&nc)
		}
		return nc, err
	}
	sw, err := c.OpenSession(300)
	if err != nil {
		t.Fatal(err)
	}
	payload := testPayload(32<<10, 3)
	half := len(payload) / 2
	streamAll(t, sw, payload[:half])
	if ncp := cur.Load(); ncp != nil {
		closeConn(*ncp) // sever mid-session
	}
	streamAll(t, sw, payload[half:])
	if err := sw.Close(); err != nil {
		t.Fatalf("Close after cut: %v", err)
	}
	if res := sw.Result(); res.Status != StatusOK {
		t.Fatalf("status = %d (%s), want OK after resume", res.Status, res.Reason)
	}
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	v, err := ReadJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v.Sessions[300].Data, payload) {
		t.Fatal("resumed session bytes differ")
	}
}

// TestGarbledPreambleRetried: an error reply to the handshake is a
// transport fault, not a refusal. The server answers a garbled
// preamble (net.reorder-conn can put the hello first) with an error
// frame; the writer must redial and commit the session intact.
func TestGarbledPreambleRetried(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "j.rrjl")
	s, addr := startServer(t, fastServer(jpath))

	c, err := NewClient(fastClient(addr), nil)
	if err != nil {
		t.Fatal(err)
	}
	var dials atomic.Int32
	base := c.Dial
	c.Dial = func(a string, d time.Duration) (net.Conn, error) {
		nc, err := base(a, d)
		if err != nil || dials.Add(1) > 1 {
			return nc, err
		}
		return &garbledConn{Conn: nc}, nil
	}
	sw, err := c.OpenSession(310)
	if err != nil {
		t.Fatalf("OpenSession after a garbled preamble: %v", err)
	}
	payload := testPayload(8<<10, 5)
	streamAll(t, sw, payload)
	if err := sw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if res := sw.Result(); res.Status != StatusOK || res.Retries < 1 {
		t.Fatalf("status = %d (%s), retries = %d; want OK after a retry", res.Status, res.Reason, res.Retries)
	}
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	v, err := ReadJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v.Sessions[310].Data, payload) {
		t.Fatal("session bytes differ after the redial")
	}
}

// garbledConn flips the top bit of the first byte written: the
// preamble's magic.
type garbledConn struct {
	net.Conn
	written bool
}

func (g *garbledConn) Write(p []byte) (int, error) {
	if g.written || len(p) == 0 {
		return g.Conn.Write(p)
	}
	g.written = true
	q := append([]byte(nil), p...)
	q[0] ^= 0x80
	return g.Conn.Write(q)
}

// TestSilentDropRecovered injects net.drop (a frame vanishes with a
// fake success) and proves the ack-stall machinery re-delivers it —
// the one failure no error path can catch.
func TestSilentDropRecovered(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "j.rrjl")
	s, addr := startServer(t, fastServer(jpath))

	inj := faultinject.New(99, faultinject.NetDrop)
	inj.ArmWithin(faultinject.NetDrop, 20) // land inside the stream

	c, err := NewClient(fastClient(addr), nil)
	if err != nil {
		t.Fatal(err)
	}
	base := c.Dial
	c.Dial = func(a string, d time.Duration) (net.Conn, error) {
		nc, err := base(a, d)
		if err != nil {
			return nil, err
		}
		return WrapFaultConn(nc, inj), nil
	}
	sw, err := c.OpenSession(400)
	if err != nil {
		t.Fatal(err)
	}
	payload := testPayload(24<<10, 4)
	streamAll(t, sw, payload)
	if err := sw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if res := sw.Result(); res.Status != StatusOK {
		t.Fatalf("status = %d (%s), want OK (drop must be re-delivered)", res.Status, res.Reason)
	}
	if n := inj.Counts()[faultinject.NetDrop]; n != 1 {
		t.Fatalf("net.drop fired %d times, want exactly 1", n)
	}
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	v, err := ReadJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v.Sessions[400].Data, payload) {
		t.Fatal("session bytes differ after drop recovery")
	}
}

// TestServerClassifiesDegradedCommit drives the server's commit
// verdict over the raw wire. The client never sheds a chunk, but the
// server must still journal a session with chunks it never received
// as degraded-with-report: one whose commit reports shed chunks, and
// one that declares more chunks than arrived.
func TestServerClassifiesDegradedCommit(t *testing.T) {
	chunk := []byte("the one chunk that arrived")
	three := bytes.Repeat(chunk, 3)
	cases := []struct {
		name   string
		commit commitMsg
	}{
		{"shed by client", commitMsg{Chunks: 1, LogLen: uint64(len(chunk)),
			LogCRC: crc32.Checksum(chunk, frame.Castagnoli), NDrop: 2}},
		{"never arrived", commitMsg{Chunks: 3, LogLen: uint64(len(three)),
			LogCRC: crc32.Checksum(three, frame.Castagnoli)}},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			jpath := filepath.Join(t.TempDir(), "j.rrjl")
			s, addr := startServer(t, fastServer(jpath))
			defer shutdownQuiet(s)
			id := uint64(700 + i)

			r := dialRaw(t, addr)
			defer closeConn(r.nc)
			r.send(MsgHello, encodeHello(helloMsg{Proto: ProtoVersion, Session: id, Tenant: "raw"}))
			if ack, ok := decodeHelloAck(r.recv(MsgHelloAck)); !ok || ack.Status != StatusOK {
				t.Fatalf("hello-ack = %+v, %v", ack, ok)
			}
			r.send(MsgChunk, encodeChunk(chunkMsg{Session: id, Seq: 0, Data: chunk}))
			if ack, ok := decodeAck(r.recv(MsgAck)); !ok || ack.Contig != 1 {
				t.Fatalf("chunk ack = %+v, %v", ack, ok)
			}
			commit := tc.commit
			commit.Session = id
			r.send(MsgCommit, encodeCommit(commit))
			ack, ok := decodeCommitAck(r.recv(MsgCommitAck))
			if !ok || ack.Status != StatusDegraded || ack.Missing != 2 {
				t.Fatalf("commit-ack = %+v, %v; want degraded with 2 missing", ack, ok)
			}

			if err := s.Shutdown(); err != nil { // closes the idle connection at once
				t.Fatal(err)
			}
			v, err := ReadJournal(jpath)
			if err != nil {
				t.Fatal(err)
			}
			sess := v.Sessions[id]
			if sess == nil || !sess.Committed || sess.Status != StatusDegraded || sess.Missing != 2 {
				t.Fatalf("journal session = %+v; want committed, degraded, 2 missing", sess)
			}
			if err := sess.Verify(); err == nil {
				t.Error("Verify must refuse a degraded session")
			}
		})
	}
}

// TestMaxSessionsReject: the N+1th tenant is refused cleanly.
func TestMaxSessionsReject(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "j.rrjl")
	sopts := fastServer(jpath)
	sopts.MaxSessions = 1
	s, addr := startServer(t, sopts)
	defer shutdownQuiet(s)

	c, err := NewClient(fastClient(addr), nil)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := c.OpenSession(700)
	if err != nil {
		t.Fatal(err)
	}
	defer closeQuiet(sw)
	if _, err := c.OpenSession(701); !errors.Is(err, ErrRejected) {
		t.Fatalf("second session: want ErrRejected, got %v", err)
	}
}

// TestRetriesExhausted: no server at all — the client gives up with a
// typed error after its capped backoff schedule, never hangs.
func TestRetriesExhausted(t *testing.T) {
	opts := fastClient("127.0.0.1:1") // nothing listens on port 1
	opts.MaxRetries = 3
	c, err := NewClient(opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := c.OpenSession(800); !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("want ErrRetriesExhausted, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("gave up after %v; backoff cap is not bounding", elapsed)
	}
}

// TestJournalTornTail tears the last record and proves recovery
// salvages everything before the tear.
func TestJournalTornTail(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "j.rrjl")
	j, err := OpenJournal(jpath, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Session(1, "torn"); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Chunk(1, 0, []byte("first chunk")); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Chunk(1, 1, []byte("second chunk")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear: chop into the last record's bytes.
	st, err := os.Stat(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(jpath, st.Size()-30); err != nil {
		t.Fatal(err)
	}
	v, err := ReadJournal(jpath)
	if err != nil {
		t.Fatalf("recovery must salvage, got %v", err)
	}
	sess := v.Sessions[1]
	if sess == nil {
		t.Fatal("session lost to the tear")
	}
	if got := string(sess.Data); got != "first chunk" {
		t.Fatalf("salvaged %q, want the first chunk only", got)
	}
	if sess.Chunks != 1 {
		t.Errorf("Chunks = %d, want 1", sess.Chunks)
	}
}

// TestKillRestartRecovery is the acceptance crash drill: rrproc dies
// mid-stream (journal abandoned without a final barrier, tail torn),
// a new rrproc recovers the journal, the still-running client resumes
// against it, and the session commits identical.
func TestKillRestartRecovery(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "j.rrjl")
	sopts := fastServer(jpath)
	sopts.FsyncEveryBytes = 2 << 10 // frequent durability for a tight replay window

	s1, err := NewServer(sopts, nil)
	if err != nil {
		t.Fatal(err)
	}
	ln1, err := net.Listen("tcp", sopts.Addr)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s1.Serve(ln1) }()

	var addr atomic.Value
	addr.Store(ln1.Addr().String())

	copts := fastClient(ln1.Addr().String())
	c, err := NewClient(copts, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Dial = func(_ string, d time.Duration) (net.Conn, error) {
		return net.DialTimeout("tcp", addr.Load().(string), d)
	}
	sw, err := c.OpenSession(900)
	if err != nil {
		t.Fatal(err)
	}
	payload := testPayload(48<<10, 9)
	half := len(payload) / 2
	streamAll(t, sw, payload[:half])

	// Crash server 1: cut the listener and every connection, abandon
	// the journal file handle with no final barrier.
	s1.crashForTest()
	_ = ln1.Close()

	// Tear the journal tail, as a real crash mid-write would.
	st, err := os.Stat(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() > 20 {
		if err := os.Truncate(jpath, st.Size()-7); err != nil {
			t.Fatal(err)
		}
	}

	// Restart on the same journal, new port; repoint the client.
	s2, err := NewServer(sopts, nil)
	if err != nil {
		t.Fatalf("restart on recovered journal: %v", err)
	}
	ln2, err := net.Listen("tcp", sopts.Addr)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s2.Serve(ln2) }()
	addr.Store(ln2.Addr().String())

	streamAll(t, sw, payload[half:])
	if err := sw.Close(); err != nil {
		t.Fatalf("Close across restart: %v", err)
	}
	if res := sw.Result(); res.Status != StatusOK {
		t.Fatalf("status = %d (%s), want OK across crash+restart", res.Status, res.Reason)
	}
	if err := s2.Shutdown(); err != nil {
		t.Fatal(err)
	}
	v, err := ReadJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	sess := v.Sessions[900]
	if err := sess.Verify(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sess.Data, payload) {
		t.Fatal("recovered session bytes differ from the client's log")
	}
	if crc := crc32.Checksum(payload, frame.Castagnoli); crc != sess.LogCRC {
		t.Fatalf("committed CRC %08x != payload CRC %08x", sess.LogCRC, crc)
	}
}

// crashForTest simulates a hard kill: connections cut, journal file
// handle closed with no barrier (anything past the last fsync'd
// segment is at the filesystem's mercy).
func (s *Server) crashForTest() {
	s.mu.Lock()
	s.draining = true
	s.closed = true
	for nc := range s.conns {
		closeConn(nc)
	}
	s.mu.Unlock()
	s.jmu.Lock()
	_ = s.jr.f.Close()
	s.jmu.Unlock()
}

func shutdownQuiet(s *Server)      { _ = s.Shutdown() }
func closeQuiet(sw *SessionWriter) { _ = sw.Close() }

// TestTenantMismatchRejected pins the session-ID collision guard: two
// rrd hosts whose clock-derived IDs collide must not be silently
// merged into one stream (the second client's chunks would ack as
// duplicates and vanish, and its commit could poison the first
// session's verdict). The second hello is rejected instead.
func TestTenantMismatchRejected(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "j.rrjl")
	s, addr := startServer(t, fastServer(jpath))
	defer shutdownQuiet(s)

	c1, err := NewClient(fastClient(addr), nil)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := c1.OpenSession(42)
	if err != nil {
		t.Fatal(err)
	}
	defer closeQuiet(sw)

	copts := fastClient(addr)
	copts.Tenant = "other-host"
	copts.MaxRetries = 1
	c2, err := NewClient(copts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.OpenSession(42); !errors.Is(err, ErrRejected) {
		t.Fatalf("colliding session from another tenant: want ErrRejected, got %v", err)
	}

	// The first session is unharmed by the collision attempt.
	streamAll(t, sw, testPayload(4<<10, 42))
	if err := sw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if res := sw.Result(); res.Status != StatusOK {
		t.Fatalf("status = %d (%s), want OK", res.Status, res.Reason)
	}
}

// TestAbortLeavesSessionUncommitted: a producer that fails upstream
// mid-stream must abort, and the journal must record the session as
// uncommitted — never as a committed, healthy-looking truncation.
func TestAbortLeavesSessionUncommitted(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "j.rrjl")
	s, addr := startServer(t, fastServer(jpath))

	c, err := NewClient(fastClient(addr), nil)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := c.OpenSession(44)
	if err != nil {
		t.Fatal(err)
	}
	streamAll(t, sw, testPayload(8<<10, 44)) // a truncated prefix
	sw.Abort()
	if _, err := sw.Write([]byte("x")); !errors.Is(err, ErrWriterClosed) {
		t.Fatalf("Write after Abort: want ErrWriterClosed, got %v", err)
	}
	if err := sw.Close(); err == nil {
		t.Fatal("Close after Abort must not report a clean session")
	}
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	v, err := ReadJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	sess := v.Sessions[44]
	if sess == nil {
		t.Fatal("aborted session absent from journal (its prefix should persist for resume)")
	}
	if sess.Committed {
		t.Fatalf("aborted session journaled as committed (status %d)", sess.Status)
	}
}

// TestDurablePromotionSnapshotExcludesLaterAppends pins the
// durable-means-fsynced contract against the promotion race: a chunk
// another session journals between a barrier and that barrier's
// promotion must NOT be marked durable by it — it is not fsync-covered,
// and a crash before the next barrier would lose it after the client
// already freed its copy.
func TestDurablePromotionSnapshotExcludesLaterAppends(t *testing.T) {
	sopts := fastServer(filepath.Join(t.TempDir(), "j.rrjl"))
	sopts.FsyncEveryBytes = 1 // every append barriers
	s, err := NewServer(sopts, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownQuiet(s)
	a, rej := s.adoptSession(helloMsg{Proto: ProtoVersion, Session: 1, Tenant: "a"})
	if a == nil {
		t.Fatal(rej)
	}
	b, rej := s.adoptSession(helloMsg{Proto: ProtoVersion, Session: 2, Tenant: "b"})
	if b == nil {
		t.Fatal(rej)
	}

	snapA1, err := s.journalChunk(a, 0, []byte("chunk a0")) // barriers
	if err != nil {
		t.Fatal(err)
	}
	if len(snapA1) != 1 || snapA1[0].sess != a || snapA1[0].chunks != 1 {
		t.Fatalf("barrier after a0 snapshotted %+v, want session 1 at 1 chunk", snapA1)
	}
	// Session 2 appends AFTER the barrier, before the promotion runs.
	snapB, err := s.journalChunk(b, 0, []byte("chunk b0"))
	if err != nil {
		t.Fatal(err)
	}
	promoteDurable(snapA1)
	if got := b.durable.Load(); got != 0 {
		t.Fatalf("promotion marked %d un-fsynced chunk(s) of session 2 durable", got)
	}
	if got := a.durable.Load(); got != 1 {
		t.Fatalf("session 1 durable = %d, want 1", got)
	}
	// Session 2's own barrier promotes it.
	promoteDurable(snapB)
	if got := b.durable.Load(); got != 1 {
		t.Fatalf("session 2 durable = %d after its own barrier, want 1", got)
	}
	// A newer barrier advances session 1; re-applying its stale
	// snapshot must not rewind it (promotions run unordered outside
	// jmu).
	snapA2, err := s.journalChunk(a, 1, []byte("chunk a1"))
	if err != nil {
		t.Fatal(err)
	}
	promoteDurable(snapA2)
	promoteDurable(snapA1)
	if got := a.durable.Load(); got != 2 {
		t.Fatalf("stale snapshot left session 1 durable at %d, want 2", got)
	}
}

// TestBarrierPromotesOnlyCoveredSessions pins the cost of a barrier
// to what it covered: over 2,000 sequential sessions, every barrier —
// byte-threshold and commit alike — snapshots only the sessions
// journaled to since the previous barrier, never every session the
// server has served, and every committed session ends durable up to
// its last chunk.
func TestBarrierPromotesOnlyCoveredSessions(t *testing.T) {
	sopts := fastServer(filepath.Join(t.TempDir(), "j.rrjl"))
	sopts.FsyncEveryBytes = 2 << 10 // a threshold barrier every few chunks
	s, err := NewServer(sopts, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownQuiet(s)
	unsynced := func() []*serverSession {
		s.jmu.Lock()
		defer s.jmu.Unlock()
		return append([]*serverSession(nil), s.unsynced...)
	}
	chunk := testPayload(700, 1)
	thresholdBarriers := 0
	for i := 0; i < 2000; i++ {
		id := uint64(i + 1)
		sess, rej := s.adoptSession(helloMsg{Proto: ProtoVersion, Session: id, Tenant: "t"})
		if sess == nil {
			t.Fatalf("session %d: %s", id, rej)
		}
		n := uint64(1 + i%4)
		for seq := uint64(0); seq < n; seq++ {
			snap, err := s.journalChunk(sess, seq, chunk)
			if err != nil {
				t.Fatal(err)
			}
			if snap == nil {
				continue
			}
			thresholdBarriers++
			if len(snap) != 1 || snap[0].sess != sess || snap[0].chunks != seq+1 {
				t.Fatalf("session %d chunk %d: threshold barrier snapshotted %d session(s), want only session %d at %d chunks",
					id, seq, len(snap), id, seq+1)
			}
			promoteDurable(snap)
		}
		// The commit barrier snapshots exactly this list.
		if l := unsynced(); len(l) > 1 || (len(l) == 1 && l[0] != sess) {
			t.Fatalf("session %d: commit barrier would snapshot %d session(s), want at most session %d", id, len(l), id)
		}
		// journalChunk leaves the reassembly state alone, so the commit
		// declares nothing and classifies as identical.
		ack, err := s.commitSession(sess, commitMsg{Session: id})
		if err != nil {
			t.Fatal(err)
		}
		if ack.Status != StatusOK {
			t.Fatalf("session %d: status %d (%s)", id, ack.Status, ack.Reason)
		}
		if l := unsynced(); len(l) != 0 {
			t.Fatalf("session %d: %d session(s) still listed after the commit barrier", id, len(l))
		}
		if got := sess.durable.Load(); got != n {
			t.Fatalf("session %d durable = %d after commit, want %d", id, got, n)
		}
	}
	if thresholdBarriers == 0 {
		t.Fatal("no append crossed FsyncEveryBytes; the test covers only commit barriers")
	}
}

// TestFailedAdoptResetsSessionGauge: a hello whose session record
// cannot be journaled must leave the rrnet.server.sessions gauge equal
// to the session table, not one above it.
func TestFailedAdoptResetsSessionGauge(t *testing.T) {
	reg := telemetry.NewRegistry(1)
	s, err := NewServer(fastServer(filepath.Join(t.TempDir(), "j.rrjl")), reg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownQuiet(s)
	if sess, rej := s.adoptSession(helloMsg{Proto: ProtoVersion, Session: 1, Tenant: "t"}); sess == nil {
		t.Fatal(rej)
	}
	closeFile(s.jr.f) // every later journal write fails
	if sess, _ := s.adoptSession(helloMsg{Proto: ProtoVersion, Session: 2, Tenant: "t"}); sess != nil {
		t.Fatal("adopt succeeded with the journal file closed")
	}
	s.mu.Lock()
	n := len(s.sessions)
	s.mu.Unlock()
	if got := reg.Gauge("rrnet.server.sessions").Value(); n != 1 || got != uint64(n) {
		t.Fatalf("sessions gauge = %d, table holds %d; want both 1", got, n)
	}
}

// TestIdleFlushBreaksDurabilityDeadlock pins the group-commit wedge:
// with FsyncEveryBytes larger than the window's worth of journal
// bytes, the byte-threshold fsync alone never fires once the window
// fills (window full -> no new chunks -> threshold never reached ->
// durable never advances -> window never drains). The server's
// heartbeat-triggered idle flush must break the cycle.
func TestIdleFlushBreaksDurabilityDeadlock(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "j.rrjl")
	sopts := fastServer(jpath)
	sopts.FsyncEveryBytes = 1 << 20 // far beyond the whole stream
	s, addr := startServer(t, sopts)
	defer shutdownQuiet(s)

	copts := fastClient(addr)
	copts.ChunkSize = 512
	copts.Window = 4 // window bytes (2K) << fsync threshold
	c, err := NewClient(copts, nil)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := c.OpenSession(606)
	if err != nil {
		t.Fatal(err)
	}
	payload := testPayload(16<<10, 6) // 32 chunks, 8 windows deep
	start := time.Now()
	streamAll(t, sw, payload)
	if err := sw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	res := sw.Result()
	if res.Status != StatusOK {
		t.Fatalf("status = %d (%s), want OK", res.Status, res.Reason)
	}
	if res.Retries != 0 {
		t.Errorf("took %d retries; the idle flush should make progress without reconnects", res.Retries)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("stream took %v; durability stalls should resolve at heartbeat cadence", d)
	}
}

// commitSession streams payload as session id on c and requires an
// identical commit with no retries.
func commitSession(t *testing.T, c *Client, id uint64, payload []byte) {
	t.Helper()
	sw, err := c.OpenSession(id)
	if err != nil {
		t.Fatalf("session %d: open: %v", id, err)
	}
	streamAll(t, sw, payload)
	if err := sw.Close(); err != nil {
		t.Fatalf("session %d: Close: %v", id, err)
	}
	if res := sw.Result(); res.Status != StatusOK || res.Retries != 0 {
		t.Fatalf("session %d: status %d (%s), %d retries; want OK with none", id, res.Status, res.Reason, res.Retries)
	}
}

// trackedConns reports how many connections s is serving.
func trackedConns(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// parkedConn returns the connection c holds between sessions, or nil.
func parkedConn(c *Client) *clientConn {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.idle
}

// closeSpy records whether the client closed its end.
type closeSpy struct {
	net.Conn
	closed atomic.Bool
}

func (s *closeSpy) Close() error {
	s.closed.Store(true)
	return s.Conn.Close()
}

// TestReuseOneConnection: sequential sessions of one Client run over
// one connection, and each lands byte-identical in the journal.
func TestReuseOneConnection(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "j.rrjl")
	reg := telemetry.NewRegistry(1)
	s, addr := startServerReg(t, fastServer(jpath), reg)
	c, err := NewClient(fastClient(addr), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payloads := map[uint64][]byte{}
	for id := uint64(1); id <= 5; id++ {
		payloads[id] = testPayload(int(3<<10*id), id)
		commitSession(t, c, id, payloads[id])
		if parkedConn(c) == nil {
			t.Fatalf("after session %d the client parks no connection", id)
		}
	}
	if n := reg.Counter("rrnet.server.conns").Value(); n != 1 {
		t.Fatalf("5 sequential sessions used %d connections, want 1", n)
	}
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	v, err := ReadJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	for id, payload := range payloads {
		if sess := v.Sessions[id]; sess == nil || !bytes.Equal(sess.Data, payload) || sess.Verify() != nil {
			t.Fatalf("session %d not journaled intact", id)
		}
	}
}

// TestReuseRedialAfterServerClose: when the server has closed the
// parked connection, or the next hello cannot be sent on it, the next
// session dials fresh within its first attempt: no retry, no
// reconnect. The dead parked connection is closed on the client's
// side too.
func TestReuseRedialAfterServerClose(t *testing.T) {
	t.Run("restart", func(t *testing.T) {
		jpath := filepath.Join(t.TempDir(), "j.rrjl")
		s1, addr1 := startServer(t, fastServer(jpath))
		var addr atomic.Pointer[string]
		addr.Store(&addr1)
		c, err := NewClient(fastClient(addr1), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.Dial = func(_ string, d time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", *addr.Load(), d)
		}
		commitSession(t, c, 1, testPayload(4<<10, 1))
		if err := s1.Shutdown(); err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewRegistry(1)
		s2, addr2 := startServerReg(t, fastServer(jpath), reg)
		defer shutdownQuiet(s2)
		addr.Store(&addr2)
		commitSession(t, c, 2, testPayload(4<<10, 2))
		if n := reg.Counter("rrnet.server.conns").Value(); n != 1 {
			t.Fatalf("restarted server accepted %d connections, want 1", n)
		}
	})
	t.Run("frame-timeout", func(t *testing.T) {
		sopts := fastServer(filepath.Join(t.TempDir(), "j.rrjl"))
		sopts.FrameTimeout = 200 * time.Millisecond
		reg := telemetry.NewRegistry(1)
		s, addr := startServerReg(t, sopts, reg)
		defer shutdownQuiet(s)
		c, err := NewClient(fastClient(addr), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var first *closeSpy
		base := c.Dial
		c.Dial = func(a string, d time.Duration) (net.Conn, error) {
			nc, err := base(a, d)
			if err != nil || first != nil {
				return nc, err
			}
			first = &closeSpy{Conn: nc}
			return first, nil
		}
		commitSession(t, c, 1, testPayload(4<<10, 1))
		if parkedConn(c) == nil {
			t.Fatal("client parks no connection")
		}
		for deadline := time.Now().Add(5 * time.Second); trackedConns(s) > 0; time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("server kept an idle connection past its FrameTimeout")
			}
		}
		commitSession(t, c, 2, testPayload(4<<10, 2))
		if !first.closed.Load() {
			t.Fatal("the parked connection the server closed is still open on the client's side")
		}
		if n := reg.Counter("rrnet.server.conns").Value(); n != 2 {
			t.Fatalf("server accepted %d connections, want 2", n)
		}
	})
	t.Run("hello-write-fails", func(t *testing.T) {
		reg := telemetry.NewRegistry(1)
		s, addr := startServerReg(t, fastServer(filepath.Join(t.TempDir(), "j.rrjl")), reg)
		defer shutdownQuiet(s)
		creg := telemetry.NewRegistry(1)
		c, err := NewClient(fastClient(addr), creg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var first *breakableConn
		base := c.Dial
		c.Dial = func(a string, d time.Duration) (net.Conn, error) {
			nc, err := base(a, d)
			if err != nil || first != nil {
				return nc, err
			}
			first = &breakableConn{Conn: nc}
			return first, nil
		}
		commitSession(t, c, 1, testPayload(4<<10, 1))
		first.broken.Store(true) // the parked connection's next write fails
		commitSession(t, c, 2, testPayload(4<<10, 2))
		if n := reg.Counter("rrnet.server.conns").Value(); n != 2 {
			t.Fatalf("server accepted %d connections, want 2", n)
		}
		for _, name := range []string{"rrnet.client.retries", "rrnet.client.reconnects"} {
			if n := creg.Counter(name).Value(); n != 0 {
				t.Errorf("%s = %d, want 0", name, n)
			}
		}
	})
}

// breakableConn fails every Write once broken is set.
type breakableConn struct {
	net.Conn
	broken atomic.Bool
}

func (b *breakableConn) Write(p []byte) (int, error) {
	if b.broken.Load() {
		return 0, errors.New("broken for test")
	}
	return b.Conn.Write(p)
}

// TestReuseShutdownClosesParked: a parked connection is idle, so
// Shutdown closes it at once instead of waiting DrainTimeout for a
// client that may not send again.
func TestReuseShutdownClosesParked(t *testing.T) {
	sopts := fastServer(filepath.Join(t.TempDir(), "j.rrjl"))
	sopts.DrainTimeout = 5 * time.Second
	s, addr := startServer(t, sopts)
	c, err := NewClient(fastClient(addr), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	commitSession(t, c, 1, testPayload(4<<10, 1))
	if parkedConn(c) == nil {
		t.Fatal("client parks no connection")
	}
	start := time.Now()
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Shutdown took %v with a connection parked; it waited for the idle connection", d)
	}
}

// TestReuseRejectedHelloNotParked: a hello refused on a parked
// connection ends the session with ErrRejected, without a fresh dial,
// and the refused connection is not parked again.
func TestReuseRejectedHelloNotParked(t *testing.T) {
	sopts := fastServer(filepath.Join(t.TempDir(), "j.rrjl"))
	sopts.MaxSessions = 1
	reg := telemetry.NewRegistry(1)
	s, addr := startServerReg(t, sopts, reg)
	defer shutdownQuiet(s)
	c, err := NewClient(fastClient(addr), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	commitSession(t, c, 1, testPayload(4<<10, 1))

	other, err := NewClient(fastClient(addr), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	holder, err := other.OpenSession(2) // takes the one session slot
	if err != nil {
		t.Fatal(err)
	}
	defer closeQuiet(holder)

	if _, err := c.OpenSession(3); !errors.Is(err, ErrRejected) {
		t.Fatalf("hello over the session limit: want ErrRejected, got %v", err)
	}
	if parkedConn(c) != nil {
		t.Fatal("client parks a connection after a refused hello")
	}
	if n := reg.Counter("rrnet.server.conns").Value(); n != 2 {
		t.Fatalf("server accepted %d connections, want 2 (no redial after a refusal)", n)
	}
}

// TestReuseAbortNeverParks: an aborted session closes its connection,
// so the next session dials a new one.
func TestReuseAbortNeverParks(t *testing.T) {
	reg := telemetry.NewRegistry(1)
	s, addr := startServerReg(t, fastServer(filepath.Join(t.TempDir(), "j.rrjl")), reg)
	defer shutdownQuiet(s)
	c, err := NewClient(fastClient(addr), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sw, err := c.OpenSession(1)
	if err != nil {
		t.Fatal(err)
	}
	streamAll(t, sw, testPayload(4<<10, 1))
	sw.Abort()
	if parkedConn(c) != nil {
		t.Fatal("client parks a connection after Abort")
	}
	commitSession(t, c, 2, testPayload(4<<10, 2))
	if n := reg.Counter("rrnet.server.conns").Value(); n != 2 {
		t.Fatalf("server accepted %d connections, want 2", n)
	}
}

// TestReuseClientCloseClosesParked: no reader goroutine runs on a
// parked connection, and Client.Close closes it; a session opened
// afterwards dials and does not park.
func TestReuseClientCloseClosesParked(t *testing.T) {
	reg := telemetry.NewRegistry(1)
	s, addr := startServerReg(t, fastServer(filepath.Join(t.TempDir(), "j.rrjl")), reg)
	defer shutdownQuiet(s)
	c, err := NewClient(fastClient(addr), nil)
	if err != nil {
		t.Fatal(err)
	}
	var first *closeSpy
	base := c.Dial
	c.Dial = func(a string, d time.Duration) (net.Conn, error) {
		nc, err := base(a, d)
		if err != nil || first != nil {
			return nc, err
		}
		first = &closeSpy{Conn: nc}
		return first, nil
	}
	commitSession(t, c, 1, testPayload(4<<10, 1))
	parked := parkedConn(c)
	if parked == nil {
		t.Fatal("client parks no connection")
	}
	select {
	case <-parked.done:
	default:
		t.Fatal("a reader goroutine runs on the parked connection")
	}
	c.Close()
	if !first.closed.Load() {
		t.Fatal("Client.Close left the parked connection open")
	}
	commitSession(t, c, 2, testPayload(4<<10, 2))
	if parkedConn(c) != nil {
		t.Fatal("closed client parks a connection")
	}
	if n := reg.Counter("rrnet.server.conns").Value(); n != 2 {
		t.Fatalf("server accepted %d connections, want 2", n)
	}
}

// rawConn drives the wire by hand for server-side tests.
type rawConn struct {
	t  *testing.T
	nc net.Conn
	fr *frame.Reader
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := nc.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := writePreamble(nc); err != nil {
		t.Fatal(err)
	}
	return &rawConn{t: t, nc: nc, fr: frame.NewReader(nc, MaxWirePayload, 1<<20)}
}

func (r *rawConn) send(mt MsgType, payload []byte) {
	r.t.Helper()
	if err := writeFrame(r.nc, mt, payload); err != nil {
		r.t.Fatalf("write %s: %v", mt, err)
	}
}

func (r *rawConn) recv(want MsgType) []byte {
	r.t.Helper()
	tp, payload, err := r.fr.Next()
	if err != nil || MsgType(tp) != want {
		r.t.Fatalf("read: got %s (%v), want %s", MsgType(tp), err, want)
	}
	return payload
}

// TestServerSessionsInSequence: one connection carries session A from
// hello to commit-ack, then session B; both journal identical.
func TestServerSessionsInSequence(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "j.rrjl")
	s, addr := startServer(t, fastServer(jpath))
	defer shutdownQuiet(s)
	r := dialRaw(t, addr)
	defer closeConn(r.nc)
	payloads := map[uint64][]byte{71: []byte("session A's one chunk"), 72: []byte("and session B's")}
	for _, id := range []uint64{71, 72} {
		data := payloads[id]
		r.send(MsgHello, encodeHello(helloMsg{Proto: ProtoVersion, Session: id, Tenant: "raw"}))
		if ack, ok := decodeHelloAck(r.recv(MsgHelloAck)); !ok || ack.Status != StatusOK || ack.Contig != 0 {
			t.Fatalf("session %d: hello-ack = %+v, %v", id, ack, ok)
		}
		r.send(MsgChunk, encodeChunk(chunkMsg{Session: id, Seq: 0, Data: data}))
		if ack, ok := decodeAck(r.recv(MsgAck)); !ok || ack.Session != id || ack.Contig != 1 {
			t.Fatalf("session %d: chunk ack = %+v, %v", id, ack, ok)
		}
		r.send(MsgCommit, encodeCommit(commitMsg{Session: id, Chunks: 1, LogLen: uint64(len(data)),
			LogCRC: crc32.Checksum(data, frame.Castagnoli)}))
		if ack, ok := decodeCommitAck(r.recv(MsgCommitAck)); !ok || ack.Session != id || ack.Status != StatusOK {
			t.Fatalf("session %d: commit-ack = %+v, %v", id, ack, ok)
		}
	}
	if err := s.Shutdown(); err != nil { // closes the idle connection at once
		t.Fatal(err)
	}
	v, err := ReadJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	for id, data := range payloads {
		sess := v.Sessions[id]
		if sess == nil || !sess.Committed || sess.Status != StatusOK || !bytes.Equal(sess.Data, data) {
			t.Fatalf("session %d journaled as %+v; want committed OK with its exact bytes", id, sess)
		}
	}
}

// TestReuseStaleFramesDropped: an ack and a commit-ack of session A
// that arrive on the connection after session B's hello must count
// for nothing: B's watermarks stay at the hello-ack's, and B's verdict
// is the one its own commit earns. The scripted server sends the stale
// frames between B's hello and its hello-ack, so B's handshake reads
// past them on the parked connection.
func TestReuseStaleFramesDropped(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const a, b = 81, 82
	data := []byte("session B's one chunk")
	served := make(chan error, 1)
	go func() { served <- scriptedServer(ln, a, b, data) }()

	c, err := NewClient(fastClient(ln.Addr().String()), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sw, err := c.OpenSession(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Write([]byte("session A")); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	sw, err = c.OpenSession(b)
	if err != nil {
		t.Fatal(err)
	}
	sw.drainAcks()
	if sw.contig != 0 || sw.durable != 0 {
		t.Fatalf("session %d: contig %d, durable %d after session %d's stale ack; want 0, 0", b, sw.contig, sw.durable, a)
	}
	if _, err := sw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if res := sw.Result(); res.Status != StatusOK || res.Retries != 0 {
		t.Fatalf("session %d: status %d (%s), %d retries; want OK, its own verdict", b, res.Status, res.Reason, res.Retries)
	}
	c.Close()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
}

// scriptedServer accepts one connection and serves session a, then
// session b, on it; right after b's hello it sends an ack and a
// degraded commit-ack carrying a's ID. It checks that b's commit
// declares exactly data, and returns when the client closes.
func scriptedServer(ln net.Listener, a, b uint64, data []byte) error {
	nc, err := ln.Accept()
	_ = ln.Close()
	if err != nil {
		return err
	}
	defer closeConn(nc)
	if err := nc.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return err
	}
	if err := readPreamble(nc); err != nil {
		return err
	}
	fr := frame.NewReader(nc, MaxWirePayload, 1<<20)
	next := func(want MsgType) ([]byte, error) {
		for {
			tp, payload, err := fr.Next()
			if err != nil {
				return nil, fmt.Errorf("waiting for %s: %w", want, err)
			}
			switch MsgType(tp) {
			case want:
				return payload, nil
			case MsgHeartbeat:
				continue
			}
			return nil, fmt.Errorf("got %s, want %s", MsgType(tp), want)
		}
	}
	for _, id := range []uint64{a, b} {
		if _, err := next(MsgHello); err != nil {
			return err
		}
		if id == b {
			if err := writeFrame(nc, MsgAck, encodeAck(ackMsg{Session: a, Contig: 9, Durable: 9})); err != nil {
				return err
			}
			if err := writeFrame(nc, MsgCommitAck, encodeCommitAck(commitAckMsg{Session: a, Status: StatusDegraded, Missing: 3, Reason: "stale"})); err != nil {
				return err
			}
		}
		if err := writeFrame(nc, MsgHelloAck, encodeHelloAck(helloAckMsg{Status: StatusOK})); err != nil {
			return err
		}
		payload, err := next(MsgChunk)
		if err != nil {
			return err
		}
		if m, ok := decodeChunk(payload); !ok || m.Session != id || m.Seq != 0 {
			return fmt.Errorf("session %d: bad chunk %+v", id, m)
		}
		if err := writeFrame(nc, MsgAck, encodeAck(ackMsg{Session: id, Contig: 1, Durable: 1})); err != nil {
			return err
		}
		if payload, err = next(MsgCommit); err != nil {
			return err
		}
		m, ok := decodeCommit(payload)
		if !ok || m.Session != id || m.Chunks != 1 {
			return fmt.Errorf("session %d: bad commit %+v", id, m)
		}
		if id == b && (m.LogLen != uint64(len(data)) || m.LogCRC != crc32.Checksum(data, frame.Castagnoli)) {
			return fmt.Errorf("session %d: commit declares %d bytes, crc %08x", id, m.LogLen, m.LogCRC)
		}
		if err := writeFrame(nc, MsgCommitAck, encodeCommitAck(commitAckMsg{Session: id, Status: StatusOK})); err != nil {
			return err
		}
	}
	if _, _, err := fr.Next(); err == nil {
		return errors.New("frame after the last commit")
	}
	return nil
}
