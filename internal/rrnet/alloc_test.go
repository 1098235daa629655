package rrnet_test

import (
	"net"
	"path/filepath"
	"testing"

	"relaxreplay/internal/core"
	"relaxreplay/internal/machine"
	"relaxreplay/internal/replaylog"
	"relaxreplay/internal/rrnet"
	"relaxreplay/internal/telemetry"
	"relaxreplay/internal/workload"
)

// sessionAllocBudget bounds the heap allocations, client and server
// together, of one in-process stream session — OpenSession, a v3
// encode of lu at 8 cores onto it, Close — once 100 sessions have
// warmed the pools: about 1.5x the count measured when the budget was
// set. Every session after the first runs over the connection the one
// before it parked.
const sessionAllocBudget = 90

// raceEnabled is set under -race (race_test.go), where allocation
// counts are not the program's own.
var raceEnabled bool

func TestStreamSessionAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("records a full kernel and streams 110 sessions")
	}
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled items at random")
	}
	k, err := workload.ByName("lu")
	if err != nil {
		t.Fatal(err)
	}
	wl := k.Build(8, 1)
	res, err := core.Record(machine.DefaultConfig(8), core.DefaultConfig(core.Opt),
		core.Workload{Name: wl.Name, Progs: wl.Progs, Inputs: wl.Inputs, InitMem: wl.InitMem})
	if err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry(1)
	srv, err := rrnet.NewServer(rrnet.ServerOptions{Addr: "127.0.0.1:0", JournalPath: filepath.Join(t.TempDir(), "j.rrjl")}, reg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		if err := srv.Shutdown(); err != nil {
			t.Error(err)
		}
		if err := <-served; err != nil {
			t.Error(err)
		}
	}()
	c, err := rrnet.NewClient(rrnet.ClientOptions{Addr: ln.Addr().String(), Tenant: "alloc", Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id := uint64(0)
	session := func() {
		id++
		sw, err := c.OpenSession(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := replaylog.EncodeV3(sw, res.Log); err != nil {
			t.Fatal(err)
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		if r := sw.Result(); r.Status != rrnet.StatusOK {
			t.Fatalf("session %d: status %d (%s)", id, r.Status, r.Reason)
		}
	}
	for range 100 {
		session()
	}
	allocs := testing.AllocsPerRun(10, session)
	if n := reg.Counter("rrnet.server.conns").Value(); n != 1 {
		t.Fatalf("%d sessions ran over %d connections, want 1", id, n)
	}
	if allocs > sessionAllocBudget {
		t.Fatalf("one stream session made %.0f heap allocations, budget %d", allocs, sessionAllocBudget)
	}
	t.Logf("%.0f allocations per session (budget %d)", allocs, sessionAllocBudget)
}
