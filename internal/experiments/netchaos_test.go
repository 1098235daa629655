package experiments

import (
	"bytes"
	"net"
	"path/filepath"
	"testing"
	"time"

	"relaxreplay/internal/core"
	"relaxreplay/internal/faultinject"
	"relaxreplay/internal/replaylog"
	"relaxreplay/internal/rrnet"
	"relaxreplay/internal/telemetry"
)

// The streaming acceptance gate: the full server x fault grid
// completes with every cell classified into an allowed outcome — no
// hangs (the per-cell watchdog converts those into loud failures), no
// silent divergence between what the client committed and what the
// journal holds — and, since the client never sheds a chunk, no cell
// commits degraded.
func TestNetChaosGridClassifiesEveryCell(t *testing.T) {
	tel := telemetry.New(telemetry.Options{Shards: 2})
	s := chaosSuite(tel)
	inj, err := faultinject.Parse("default@7")
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.NetChaosGrid(inj)
	if err != nil {
		if res != nil {
			t.Log("\n" + res.Table.String())
		}
		t.Fatal(err)
	}
	wantCells := len(NetChaosServers) * (1 + len(faultinject.NetPoints()))
	if len(res.Cells) != wantCells {
		t.Fatalf("cells = %d, want %d", len(res.Cells), wantCells)
	}
	outcomes := map[string]int{}
	fired := uint64(0)
	for _, c := range res.Cells {
		if c.Outcome == "" {
			t.Fatalf("cell %s/%s has no outcome", c.Server, c.Fault)
		}
		if ForbiddenOutcome(c.Outcome) {
			t.Fatalf("forbidden outcome %s at %s/%s: %s",
				c.Outcome, c.Server, c.Fault, c.Detail)
		}
		outcomes[c.Outcome]++
		fired += c.Fired
	}
	for _, c := range res.Cells {
		// A full window makes Write wait, so a degraded commit means
		// the client lost a chunk it was meant to deliver.
		if c.Outcome == OutcomeDegraded {
			t.Errorf("%s/%s = %s (%s): the client sheds nothing",
				c.Server, c.Fault, c.Outcome, c.Detail)
		}
		// The happy diagonal: with no transport fault, every server
		// behaviour — slow and restarting included — commits
		// byte-identical. Faulted cells may still end rejected: a
		// reordered preamble is a bad preamble to the server.
		if c.Fault == chaosBaseline && c.Outcome != OutcomeIdentical {
			t.Errorf("%s/%s = %s (%s), want %s",
				c.Server, c.Fault, c.Outcome, c.Detail, OutcomeIdentical)
		}
	}
	if outcomes[OutcomeIdentical] == 0 {
		t.Fatal("no cell committed identical — the grid proved nothing")
	}
	if fired == 0 {
		t.Fatal("no transport fault fired anywhere — the fault axis is dead")
	}
	t.Logf("outcomes: %v, %d transport faults fired", outcomes, fired)
}

// The end-to-end byte-identity acceptance: a real recording streamed
// through the client/server pair — under transport faults that force
// retries — journals byte-identical to the local WriteLog output,
// and the journal export round-trips through the v3 decoder.
func TestStreamedSessionMatchesLocalLog(t *testing.T) {
	tel := telemetry.New(telemetry.Options{Shards: 2})
	s := chaosSuite(tel)
	run, err := s.record(Spec{App: "fft", Variant: core.Opt, Mode: I4K, Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	var local bytes.Buffer
	if err := replaylog.EncodeV3(&local, run.Res.Log); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	srv, err := rrnet.NewServer(rrnet.ServerOptions{
		Addr:        "127.0.0.1:0",
		JournalPath: filepath.Join(dir, "journal"),
	}, tel.Registry())
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck // ends at shutdown
	defer shutdownQuiet(srv)

	inj := faultinject.New(3, faultinject.NetReset)
	inj.ArmWithin(faultinject.NetReset, 4)
	client, err := rrnet.NewClient(rrnet.ClientOptions{
		Addr:        ln.Addr().String(),
		Tenant:      "acceptance",
		ChunkSize:   1 << 10,
		BackoffBase: 2 * time.Millisecond,
		BackoffCap:  50 * time.Millisecond,
	}, tel.Registry())
	if err != nil {
		t.Fatal(err)
	}
	base := client.Dial
	client.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
		nc, err := base(addr, timeout)
		if err != nil {
			return nil, err
		}
		return rrnet.WrapFaultConn(nc, inj), nil
	}

	sw, err := client.OpenSession(4242)
	if err != nil {
		t.Fatal(err)
	}
	if err := replaylog.EncodeV3(sw, run.Res.Log); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if got := sw.Result().Status; got != rrnet.StatusOK {
		t.Fatalf("status = %d, want OK (%s)", got, sw.Result().Reason)
	}

	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
	view, err := rrnet.ReadJournal(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	sess := view.Sessions[4242]
	if sess == nil {
		t.Fatal("session 4242 not journaled")
	}
	if !bytes.Equal(sess.Data, local.Bytes()) {
		t.Fatalf("journaled bytes differ from local WriteLog output: %d vs %d bytes",
			len(sess.Data), local.Len())
	}
	if err := sess.Verify(); err != nil {
		t.Fatal(err)
	}

	// The exported bytes must round-trip the v3 decoder: streamed
	// sessions replay exactly like locally-written logs.
	var export bytes.Buffer
	if err := view.Export(4242, &export); err != nil {
		t.Fatal(err)
	}
	l, err := replaylog.Decode(bytes.NewReader(export.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := l.Cores, run.Res.Log.Cores; got != want {
		t.Fatalf("decoded %d cores, want %d", got, want)
	}
	if fired := inj.Counts()[faultinject.NetReset]; fired == 0 {
		t.Fatal("net.reset never fired — the retry path was not exercised")
	}
}
