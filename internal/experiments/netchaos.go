// Net chaos grid: the streaming analog of ChaosMatrix. Every cell
// runs a real client/server pair over localhost TCP — a recorder-side
// session streaming a known payload into an rrproc-style journal —
// under one combination of server behaviour and injected transport
// fault. The demand is the same as the file-based matrix: every cell
// ends classified (identical, degraded-with-report, or rejected),
// never hung and never silently divergent. A journaled session that
// claims success must be byte-identical to what the client streamed.
package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"relaxreplay/internal/faultinject"
	"relaxreplay/internal/rrnet"
	"relaxreplay/internal/stats"
)

// NetChaosServers are the server behaviours of the net chaos grid: a
// healthy server, a slow consumer (acks delayed so the client window
// fills), and a mid-stream restart (graceful-but-forced shutdown, then
// a new server recovering the same journal on a new port).
var NetChaosServers = []string{"steady", "slow", "restart"}

// netChaosFaults is the transport fault axis: no fault plus every
// registered net.* point.
func netChaosFaults() []string {
	out := []string{chaosBaseline}
	for _, p := range faultinject.NetPoints() {
		out = append(out, string(p))
	}
	return out
}

// netChaosWatchdog bounds one cell. A cell that exceeds it is
// reported as a forbidden hang instead of wedging the grid.
const netChaosWatchdog = 30 * time.Second

// netChaosPayload is the per-cell stream size: enough chunks that
// one-shot faults land mid-stream and slow-consumer cells overflow
// the send window.
const netChaosPayload = 48 << 10

// NetChaosCell is one (server, fault) cell of the grid.
type NetChaosCell struct {
	Server  string
	Fault   string // net.* point name, or "baseline"
	Outcome string // one of the Outcome* classes
	Fired   uint64 // transport faults actually injected
	Retries int    // client reconnect attempts
	Detail  string
}

// NetChaosResult is the full grid plus its rendered table.
type NetChaosResult struct {
	Cells []NetChaosCell
	Table *stats.Table
}

// Forbidden returns the cells with forbidden outcomes.
func (r *NetChaosResult) Forbidden() []NetChaosCell {
	var out []NetChaosCell
	for _, c := range r.Cells {
		if ForbiddenOutcome(c.Outcome) {
			out = append(out, c)
		}
	}
	return out
}

// NetChaosGrid runs the full server x fault grid and
// classifies each cell. Like ChaosMatrix it returns the assembled
// grid alongside a non-nil error when any cell lands in a forbidden
// class.
func (s *Suite) NetChaosGrid(inj *faultinject.Injector) (*NetChaosResult, error) {
	if inj == nil {
		return nil, fmt.Errorf("experiments: net chaos needs an enabled fault injector (-faults spec@seed)")
	}
	type spec struct{ server, fault string }
	var specs []spec
	for _, srv := range NetChaosServers {
		for _, f := range netChaosFaults() {
			specs = append(specs, spec{srv, f})
		}
	}

	cells, err := parmap(s, len(specs), func(i int) (NetChaosCell, error) {
		return s.netChaosCell(specs[i].server, specs[i].fault, inj), nil
	})
	if err != nil {
		return nil, err
	}

	t := stats.NewTable(
		fmt.Sprintf("Net chaos grid: %d servers x %d faults",
			len(NetChaosServers), len(netChaosFaults())),
		"server", "fault", "outcome", "fired", "retries", "detail")
	for _, c := range cells {
		t.AddRow(c.Server, c.Fault, c.Outcome,
			fmt.Sprintf("%d", c.Fired), fmt.Sprintf("%d", c.Retries), c.Detail)
	}
	t.SortRows()
	res := &NetChaosResult{Cells: cells, Table: t}
	if bad := res.Forbidden(); len(bad) > 0 {
		var names []string
		for _, c := range bad {
			names = append(names, fmt.Sprintf("%s/%s=%s", c.Server, c.Fault, c.Outcome))
		}
		return res, fmt.Errorf("experiments: net chaos grid: %d forbidden outcome(s): %s",
			len(bad), strings.Join(names, ", "))
	}
	return res, nil
}

// netChaosCell runs one cell under a watchdog. A hang is a forbidden
// outcome, not a wedged grid (the stuck goroutine is abandoned — the
// cell already failed).
func (s *Suite) netChaosCell(server, fault string, inj *faultinject.Injector) NetChaosCell {
	cell := NetChaosCell{Server: server, Fault: fault}
	done := make(chan NetChaosCell, 1)
	//rrlint:allow goroleak -- watchdog cell: abandoned on timeout by design so one hung cell cannot stall the suite
	go func() {
		defer func() {
			if r := recover(); r != nil {
				cell.Outcome = OutcomePanic
				cell.Detail = chaosDetail(fmt.Sprint(r))
				done <- cell
			}
		}()
		done <- s.netChaosCellBody(cell, inj)
	}()
	select {
	case c := <-done:
		return c
	case <-time.After(netChaosWatchdog):
		cell.Outcome = OutcomeError
		cell.Detail = fmt.Sprintf("watchdog: cell still running after %v", netChaosWatchdog)
		return cell
	}
}

// netChaosCellBody classifies one cell. The named return matters: the
// deferred fault-count fold must land in the value the caller sees.
func (s *Suite) netChaosCellBody(cell NetChaosCell, inj *faultinject.Injector) (out NetChaosCell) {
	server, fault := cell.Server, cell.Fault
	dir, err := os.MkdirTemp("", "rr-netchaos-*")
	if err != nil {
		cell.Outcome = OutcomeError
		cell.Detail = chaosDetail(err.Error())
		return cell
	}
	defer os.RemoveAll(dir)

	label := cell.Server + "/" + cell.Fault
	payload := netChaosBytes(label, netChaosPayload)

	// Server side. The restart orchestration retargets addr mid-stream,
	// so the client dials through the atomic.
	sopts := rrnet.ServerOptions{
		Addr:            "127.0.0.1:0",
		JournalPath:     filepath.Join(dir, "journal"),
		ReorderWindow:   16,
		FrameTimeout:    2 * time.Second,
		DrainTimeout:    200 * time.Millisecond,
		FsyncEveryBytes: 8 << 10,
	}
	if server == "slow" {
		sopts.SlowConsumer = 2 * time.Millisecond
	}
	srv, ln, err := netChaosServe(sopts, s)
	if err != nil {
		cell.Outcome = OutcomeError
		cell.Detail = chaosDetail(err.Error())
		return cell
	}
	var addr atomic.Pointer[string]
	first := ln.Addr().String()
	addr.Store(&first)
	var current atomic.Pointer[rrnet.Server]
	current.Store(srv)
	defer func() { shutdownQuiet(current.Load()) }()

	restartDone := make(chan struct{})
	if server == "restart" {
		go func() {
			defer close(restartDone)
			time.Sleep(25 * time.Millisecond)
			shutdownQuiet(current.Load())
			srv2, ln2, err := netChaosServe(sopts, s)
			if err != nil {
				return // the client's retries will exhaust loudly
			}
			a := ln2.Addr().String()
			addr.Store(&a)
			current.Store(srv2)
		}()
	} else {
		close(restartDone)
	}

	// Client side: one isolated fault per cell on a per-cell
	// deterministic stream, armed early enough to land mid-stream.
	var cinj *faultinject.Injector
	if fault != chaosBaseline {
		cinj = inj.Restrict(label, faultinject.Point(fault))
		cinj.SetTelemetry(s.opts.Telemetry)
		cinj.ArmWithin(faultinject.Point(fault), 24)
	}
	defer func() {
		for _, n := range cinj.Counts() {
			out.Fired += n
		}
	}()

	copts := rrnet.ClientOptions{
		Addr:           ln.Addr().String(),
		Tenant:         "chaos",
		ChunkSize:      1 << 10,
		Window:         4,
		MaxRetries:     12,
		BackoffBase:    2 * time.Millisecond,
		BackoffCap:     50 * time.Millisecond,
		DialTimeout:    time.Second,
		FrameTimeout:   2 * time.Second,
		HeartbeatEvery: 50 * time.Millisecond,
		AckStall:       250 * time.Millisecond,
		Seed:           netChaosSeed(label),
	}
	client, err := rrnet.NewClient(copts, s.opts.Telemetry.Registry())
	if err != nil {
		cell.Outcome = OutcomeError
		cell.Detail = chaosDetail(err.Error())
		return cell
	}
	defer client.Close()
	client.Dial = func(_ string, timeout time.Duration) (net.Conn, error) {
		nc, err := net.DialTimeout("tcp", *addr.Load(), timeout)
		if err != nil {
			return nil, err
		}
		return rrnet.WrapFaultConn(nc, cinj), nil
	}

	id := netChaosSeed(label) | 1
	sw, err := client.OpenSession(id)
	if err != nil {
		return classifyNetError(cell, err)
	}
	_, werr := sw.Write(payload)
	cerr := sw.Close()
	res := sw.Result()
	cell.Retries = res.Retries
	if werr != nil {
		return classifyNetError(cell, werr)
	}
	if cerr != nil {
		return classifyNetError(cell, cerr)
	}

	// Wait out the restart swap, then close the journal and audit it:
	// the on-disk truth decides the outcome, not the client's word.
	<-restartDone
	shutdownQuiet(current.Load())
	view, err := rrnet.ReadJournal(sopts.JournalPath)
	if err != nil {
		cell.Outcome = OutcomeError
		cell.Detail = chaosDetail("journal: " + err.Error())
		return cell
	}
	sess := view.Sessions[id]
	if sess == nil || !sess.Committed {
		cell.Outcome = OutcomeError
		cell.Detail = "client reported success but the journal holds no committed session"
		return cell
	}

	switch {
	case res.Status == rrnet.StatusOK:
		if sess.Status != rrnet.StatusOK || !bytes.Equal(sess.Data, payload) {
			cell.Outcome = OutcomeSilent
			cell.Detail = fmt.Sprintf("client says identical; journal has status %d, %d/%d bytes",
				sess.Status, len(sess.Data), len(payload))
			return cell
		}
		cell.Outcome = OutcomeIdentical
		cell.Detail = fmt.Sprintf("%d bytes journaled", len(sess.Data))
	case res.Status == rrnet.StatusDegraded:
		if sess.Status != rrnet.StatusDegraded || sess.Missing == 0 {
			cell.Outcome = OutcomeSilent
			cell.Detail = "degraded commit without a journaled loss report"
			return cell
		}
		cell.Outcome = OutcomeDegraded
		cell.Detail = fmt.Sprintf("%d chunks missing and reported", sess.Missing)
	default:
		cell.Outcome = OutcomeRejected
		cell.Detail = chaosDetail(res.Reason)
	}
	return cell
}

// classifyNetError maps a session failure to its outcome class: typed
// rrnet failures are loud, classified rejections; anything untyped is
// forbidden.
func classifyNetError(cell NetChaosCell, err error) NetChaosCell {
	switch {
	case errors.Is(err, rrnet.ErrRejected), errors.Is(err, rrnet.ErrRetriesExhausted):
		cell.Outcome = OutcomeRejected
		cell.Detail = chaosDetail(err.Error())
	default:
		cell.Outcome = OutcomeError
		cell.Detail = chaosDetail(err.Error())
	}
	return cell
}

// netChaosServe builds a server on an ephemeral port and serves it on
// a goroutine.
func netChaosServe(opts rrnet.ServerOptions, s *Suite) (*rrnet.Server, net.Listener, error) {
	srv, err := rrnet.NewServer(opts, s.opts.Telemetry.Registry())
	if err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		shutdownQuiet(srv)
		return nil, nil, err
	}
	//rrlint:allow goroleak -- serve loop terminates when shutdownQuiet closes the listener
	go func() {
		//rrlint:allow errcheck-io -- serve loop ends at shutdown; its error has no consumer here
		_ = srv.Serve(ln)
	}()
	return srv, ln, nil
}

func shutdownQuiet(srv *rrnet.Server) {
	if srv != nil {
		//rrlint:allow errcheck-io -- teardown of a cell whose outcome is already decided
		_ = srv.Shutdown()
	}
}

// netChaosBytes builds the deterministic per-cell payload.
func netChaosBytes(label string, n int) []byte {
	x := netChaosSeed(label)
	out := make([]byte, n)
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out[i] = byte(x)
	}
	return out
}

// netChaosSeed hashes a cell label into a deterministic seed (FNV-1a).
func netChaosSeed(label string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return h
}
