package replay

import (
	"errors"
	"testing"

	"relaxreplay/internal/isa"
	"relaxreplay/internal/replaylog"
	"relaxreplay/internal/telemetry"
)

// twoCoreLog: core 0 replays cleanly; core 1's stream lies about its
// block length (as if later intervals were lost and a patched store
// never arrived), so core 1 diverges.
func twoCoreLog() *replaylog.Log {
	return &replaylog.Log{
		Cores:   2,
		Patched: true,
		Inputs:  make([][]uint64, 2),
		Streams: []replaylog.CoreLog{
			{Core: 0, Intervals: []replaylog.Interval{
				{Seq: 0, Timestamp: 10, Entries: []replaylog.Entry{{Type: replaylog.InorderBlock, Size: 6}}},
			}},
			{Core: 1, Intervals: []replaylog.Interval{
				{Seq: 0, Timestamp: 20, Entries: []replaylog.Entry{{Type: replaylog.InorderBlock, Size: 99}}},
			}},
		},
	}
}

func TestStrictReplayReturnsTypedDivergence(t *testing.T) {
	r, err := New(DefaultConfig(), twoCoreLog(), []isa.Program{prog(), prog()}, map[uint64]uint64{0x100: 42}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Run()
	var div *ErrDiverged
	if !errors.As(err, &div) {
		t.Fatalf("err = %v (%T), want *ErrDiverged", err, err)
	}
	if div.Core != 1 || div.Interval != 0 || div.Seq != 0 {
		t.Fatalf("divergence at core %d interval %d seq %d, want core 1 interval 0 seq 0", div.Core, div.Interval, div.Seq)
	}
}

func TestPartialReplayDegradesDivergedCore(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AllowPartial = true
	tel := telemetry.New(telemetry.Options{Shards: 2})
	cfg.Telemetry = tel
	r, err := New(cfg, twoCoreLog(), []isa.Program{prog(), prog()}, map[uint64]uint64{0x100: 42}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatalf("partial replay failed outright: %v", err)
	}
	if !res.Degraded() || len(res.Degradations) != 1 {
		t.Fatalf("Degradations = %v", res.Degradations)
	}
	d := res.Degradations[0]
	if d.Core != 1 || d.Interval != 0 {
		t.Fatalf("degradation = %+v, want core 1 interval 0", d)
	}
	// Core 0 must be fully replayed and authoritative.
	if res.FinalRegs[0][3] != 42 || res.FinalRegs[0][5] != 47 {
		t.Fatalf("core 0 regs = %v", res.FinalRegs[0][:6])
	}
	found := false
	for _, m := range tel.Registry().Snapshot() {
		if m.Name == "replay.degraded" && m.Value == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("replay.degraded counter not incremented")
	}
}

// A core whose tail intervals were lost stops early: under
// AllowPartial that is a degradation (did not reach HALT), not a
// failure.
func TestPartialReplayIncompleteCore(t *testing.T) {
	log := patchedLog(replaylog.Entry{Type: replaylog.InorderBlock, Size: 2})
	cfg := DefaultConfig()
	cfg.AllowPartial = true
	r, err := New(cfg, log, []isa.Program{prog()}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Degradations) != 1 || res.Degradations[0].Interval != -1 {
		t.Fatalf("Degradations = %v", res.Degradations)
	}
	if res.Instret[0] != 2 {
		t.Fatalf("instret = %d, want the 2 replayed instructions", res.Instret[0])
	}
}

func TestWatchdogProducesStallReport(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WatchdogSteps = 3 // the log legitimately needs 6
	tel := telemetry.New(telemetry.Options{Shards: 2})
	cfg.Telemetry = tel
	log := patchedLog(replaylog.Entry{Type: replaylog.InorderBlock, Size: 6})
	r, err := New(cfg, log, []isa.Program{prog()}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Run()
	var stall *ErrStalled
	if !errors.As(err, &stall) {
		t.Fatalf("err = %v (%T), want *ErrStalled", err, err)
	}
	rep := stall.Report
	if rep.Budget != 3 || rep.Steps != 4 || rep.Core != 0 || rep.Interval != 0 {
		t.Fatalf("stall report = %+v", rep)
	}
	if len(rep.Done) != 1 || rep.Done[0] != 0 || len(rep.Halted) != 1 || rep.Halted[0] {
		t.Fatalf("per-core state = done %v halted %v", rep.Done, rep.Halted)
	}
	if len(rep.Metrics) == 0 {
		t.Fatal("stall report has no telemetry snapshot")
	}
	if rep.String() == "" || stall.Error() == "" {
		t.Fatal("stall report does not render")
	}
	// The watchdog must also fire under AllowPartial: a stall is
	// global, not a per-core degradation.
	cfg.AllowPartial = true
	r, _ = New(cfg, log, []isa.Program{prog()}, nil, nil)
	if _, err := r.Run(); !errors.As(err, &stall) {
		t.Fatalf("AllowPartial suppressed the watchdog: %v", err)
	}
}

// The auto budget must never fire on a truthful log.
func TestWatchdogAutoBudgetAllowsHonestLogs(t *testing.T) {
	log := patchedLog(replaylog.Entry{Type: replaylog.InorderBlock, Size: 6})
	r, err := New(DefaultConfig(), log, []isa.Program{prog()}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
}

// End-of-run incompleteness in strict mode is a typed divergence too.
func TestStrictIncompleteIsTyped(t *testing.T) {
	log := patchedLog(replaylog.Entry{Type: replaylog.InorderBlock, Size: 2})
	r, _ := New(DefaultConfig(), log, []isa.Program{prog()}, nil, nil)
	_, err := r.Run()
	var div *ErrDiverged
	if !errors.As(err, &div) || div.Interval != -1 || div.Core != 0 {
		t.Fatalf("err = %v", err)
	}
}

// A decoder keeps streams in file order, and a lost stream shifts the
// rest, so the replayer matches streams to cores by their Core field;
// a stream for a core the log does not have is rejected up front.
func TestReplayMatchesStreamsByCore(t *testing.T) {
	progs := []isa.Program{prog(), prog()}
	mem := map[uint64]uint64{0x100: 42}
	l := twoCoreLog()
	l.Streams[0], l.Streams[1] = l.Streams[1], l.Streams[0]
	r, err := New(DefaultConfig(), l, progs, mem, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Run()
	var div *ErrDiverged
	if !errors.As(err, &div) || div.Core != 1 || div.Interval != 0 {
		t.Fatalf("reordered streams: err = %v, want core 1's block to diverge", err)
	}

	l = twoCoreLog()
	l.Streams = l.Streams[1:] // core 0's stream lost
	r, err = New(DefaultConfig(), l, progs, mem, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err = r.Run(); !errors.As(err, &div) || div.Core != 1 || div.Interval != 0 {
		t.Fatalf("lost stream: err = %v, want core 1's block to diverge", err)
	}

	for _, core := range []int{2, -1} {
		l = twoCoreLog()
		l.Streams[1].Core = core
		if _, err := New(DefaultConfig(), l, progs, mem, nil); err == nil {
			t.Errorf("stream for core %d of 2 accepted", core)
		}
	}
	l = twoCoreLog()
	l.Streams[1].Core = 0
	if _, err := New(DefaultConfig(), l, progs, mem, nil); err == nil {
		t.Error("two streams for core 0 accepted")
	}
}
