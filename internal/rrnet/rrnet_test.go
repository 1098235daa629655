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
	s, err := NewServer(opts, nil)
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

// TestConcurrentSessions multiplexes two tenants into one journal.
func TestConcurrentSessions(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "j.rrjl")
	s, addr := startServer(t, fastServer(jpath))

	payloads := map[uint64][]byte{
		201: testPayload(16<<10, 11),
		202: testPayload(24<<10, 22),
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(payloads))
	for id, payload := range payloads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := NewClient(fastClient(addr), nil)
			if err != nil {
				errs <- err
				return
			}
			sw, err := c.OpenSession(id)
			if err != nil {
				errs <- err
				return
			}
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

			nc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer closeConn(nc)
			if err := nc.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
				t.Fatal(err)
			}
			fr := frame.NewReader(nc, MaxWirePayload, 1<<20)
			send := func(mt MsgType, payload []byte) {
				t.Helper()
				if err := writeFrame(nc, mt, payload); err != nil {
					t.Fatalf("write %s: %v", mt, err)
				}
			}
			recv := func(want MsgType) []byte {
				t.Helper()
				tp, payload, err := fr.Next()
				if err != nil || MsgType(tp) != want {
					t.Fatalf("read: got %s (%v), want %s", MsgType(tp), err, want)
				}
				return payload
			}

			if err := writePreamble(nc); err != nil {
				t.Fatal(err)
			}
			send(MsgHello, encodeHello(helloMsg{Proto: ProtoVersion, Session: id, Tenant: "raw"}))
			if ack, ok := decodeHelloAck(recv(MsgHelloAck)); !ok || ack.Status != StatusOK {
				t.Fatalf("hello-ack = %+v, %v", ack, ok)
			}
			send(MsgChunk, encodeChunk(chunkMsg{Session: id, Seq: 0, Data: chunk}))
			if ack, ok := decodeAck(recv(MsgAck)); !ok || ack.Contig != 1 {
				t.Fatalf("chunk ack = %+v, %v", ack, ok)
			}
			commit := tc.commit
			commit.Session = id
			send(MsgCommit, encodeCommit(commit))
			ack, ok := decodeCommitAck(recv(MsgCommitAck))
			if !ok || ack.Status != StatusDegraded || ack.Missing != 2 {
				t.Fatalf("commit-ack = %+v, %v; want degraded with 2 missing", ack, ok)
			}

			// Close the raw connection first, or Shutdown's drain waits
			// out DrainTimeout for it.
			closeConn(nc)
			if err := s.Shutdown(); err != nil {
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
