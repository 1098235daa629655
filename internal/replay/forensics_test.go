package replay

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"relaxreplay/internal/isa"
	"relaxreplay/internal/provenance"
	"relaxreplay/internal/replaylog"
)

// divergingLog builds a patched log whose first entry demands a
// ReorderedLoad injection at prog()'s LI instruction — a guaranteed
// access mismatch.
func divergingLog() *replaylog.Log {
	return patchedLog(replaylog.Entry{Type: replaylog.ReorderedLoad, Value: 1})
}

func TestAccessMismatchTyped(t *testing.T) {
	r, err := New(DefaultConfig(), divergingLog(), []isa.Program{prog()}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Run()
	var div *ErrDiverged
	if !errors.As(err, &div) {
		t.Fatalf("err = %v, want *ErrDiverged", err)
	}
	var mm *AccessMismatch
	if !errors.As(err, &mm) {
		t.Fatalf("cause %v does not unwrap to *AccessMismatch", div.Cause)
	}
	if !strings.Contains(mm.Expected, "load instruction") {
		t.Fatalf("Expected = %q", mm.Expected)
	}
	if mm.Actual == "" {
		t.Fatal("Actual side empty")
	}
	// The historical message text is preserved.
	if !strings.Contains(err.Error(), "non-load instruction") {
		t.Fatalf("message changed: %v", err)
	}
}

func TestBuildDivergenceReportFromDegradation(t *testing.T) {
	log := divergingLog()
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
	// The in-interval mismatch degrades the core; the end-of-run check
	// then reports the same core never reached HALT.
	if len(res.Degradations) == 0 {
		t.Fatal("no degradations")
	}
	reports := DivergenceReports(log, res.Degradations)
	if len(reports) != len(res.Degradations) {
		t.Fatalf("%d reports for %d degradations", len(reports), len(res.Degradations))
	}
	rep := reports[0]
	if rep.Core != 0 || rep.Interval != 0 || rep.EndOfLog {
		t.Fatalf("report = %+v", rep)
	}
	if !strings.Contains(rep.Cause, "non-load") {
		t.Fatalf("cause = %q", rep.Cause)
	}
	if rep.Expected == "" || rep.Actual == "" {
		t.Fatalf("mismatch sides not extracted: %+v", rep)
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"core", "interval", "cause", "expected", "actual"} {
		if _, ok := m[k]; !ok {
			t.Fatalf("JSON missing %q: %s", k, data)
		}
	}
}

func TestDivergenceReportEndOfLog(t *testing.T) {
	// The log ends two instructions in; the core never reaches HALT.
	log := patchedLog(replaylog.Entry{Type: replaylog.InorderBlock, Size: 2})
	cfg := DefaultConfig()
	cfg.AllowPartial = true
	r, _ := New(cfg, log, []isa.Program{prog()}, nil, nil)
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Degradations) != 1 || !res.Degradations[0].EndOfLog() {
		t.Fatalf("degradations = %v", res.Degradations)
	}
	rep := BuildDivergenceReport(log, res.Degradations[0].Core, res.Degradations[0].Interval,
		res.Degradations[0].Seq, res.Degradations[0].Cause)
	if !rep.EndOfLog || rep.Interval != -1 {
		t.Fatalf("report = %+v", rep)
	}
	// End-of-log context is the core's recorded tail.
	if len(rep.Context) != 1 || rep.Context[0].Seq != 0 {
		t.Fatalf("context = %+v", rep.Context)
	}
}

// contextLog builds a two-core log with interleaved timestamps for the
// window tests: core 0 at ts 10/30/50/70, core 1 at ts 20/40/60.
func contextLog() *replaylog.Log {
	iv := func(seq, ts uint64) replaylog.Interval {
		return replaylog.Interval{Seq: seq, CISN: uint16(seq), Timestamp: ts,
			Entries: []replaylog.Entry{{Type: replaylog.InorderBlock, Size: uint32(seq + 1)}}}
	}
	return &replaylog.Log{
		Cores:   2,
		Patched: true,
		Streams: []replaylog.CoreLog{
			{Core: 0, Intervals: []replaylog.Interval{iv(0, 10), iv(1, 30), iv(2, 50), iv(3, 70)}},
			{Core: 1, Intervals: []replaylog.Interval{iv(0, 20), iv(1, 40), iv(2, 60)}},
		},
		Inputs: make([][]uint64, 2),
	}
}

func TestContextWindowOrderAndCut(t *testing.T) {
	log := contextLog()
	// Divergence at core 0 interval 2 (ts 50): the context is
	// everything strictly before ts 50, two intervals per core (fewer
	// than the window of 4), in replay total order.
	rep := BuildDivergenceReport(log, 0, 2, 2, fmt.Errorf("boom"))
	want := []struct {
		core int
		seq  uint64
		ts   uint64
	}{{0, 0, 10}, {1, 0, 20}, {0, 1, 30}, {1, 1, 40}}
	if len(rep.Context) != len(want) {
		t.Fatalf("context = %+v", rep.Context)
	}
	for i, w := range want {
		c := rep.Context[i]
		if c.Core != w.core || c.Seq != w.seq || c.Timestamp != w.ts {
			t.Fatalf("context[%d] = %+v, want %+v", i, c, w)
		}
		if c.Instructions == 0 || c.Entries == 0 {
			t.Fatalf("context[%d] missing shape: %+v", i, c)
		}
	}
}

func TestContextWindowDefaultDepth(t *testing.T) {
	log := contextLog()
	// The window is DefaultForensicsWindow (4): the cut at ts 70 keeps
	// 3 core-0 intervals and all 3 core-1 intervals.
	rep := BuildDivergenceReport(log, 0, 3, 3, nil)
	if len(rep.Context) != 6 {
		t.Fatalf("context depth = %d, want 6: %+v", len(rep.Context), rep.Context)
	}
	for i := 1; i < len(rep.Context); i++ {
		if rep.Context[i-1].Timestamp > rep.Context[i].Timestamp {
			t.Fatalf("context out of order: %+v", rep.Context)
		}
	}
}

func TestDivergenceReportProvenance(t *testing.T) {
	log := contextLog()
	log.Provenance = []provenance.CoreProvenance{
		{Core: 0, Records: []provenance.Record{
			{Seq: 0, Cause: provenance.CauseSize},
			{Seq: 2, Cause: provenance.CauseConflict, ConflictLine: 0x80, RemoteCore: 1},
		}},
	}
	rep := BuildDivergenceReport(log, 0, 2, 2, nil)
	if rep.Provenance == nil {
		t.Fatal("provenance not attached")
	}
	if rep.Provenance.Cause != provenance.CauseConflict || rep.Provenance.RemoteCore != 1 {
		t.Fatalf("provenance = %+v", rep.Provenance)
	}
	// A seq with no sideband record resolves to nil, not a mismatch.
	if rep := BuildDivergenceReport(log, 0, 1, 1, nil); rep.Provenance != nil {
		t.Fatalf("attached provenance for uncovered seq: %+v", rep.Provenance)
	}
	// End-of-log reports carry no interval provenance.
	if rep := BuildDivergenceReport(log, 0, -1, 0, nil); rep.Provenance != nil {
		t.Fatal("end-of-log report attached provenance")
	}
}

func TestDamageReport(t *testing.T) {
	rep := DamageReport("3 corrupt frame(s), 2 store(s) unplaced")
	if rep.Core != -1 || rep.Interval != -1 {
		t.Fatalf("report = %+v", rep)
	}
	if !strings.Contains(rep.Cause, "corrupt") {
		t.Fatalf("cause = %q", rep.Cause)
	}
	if _, err := rep.JSON(); err != nil {
		t.Fatal(err)
	}
}

// Satellite: the end-of-run completeness check renders a
// self-explanatory message instead of "interval -1 (seq 0)".
func TestEndOfLogErrorRendering(t *testing.T) {
	cause := fmt.Errorf("did not reach HALT (pc=3)")
	eol := &ErrDiverged{Core: 2, Interval: -1, Cause: cause}
	if got := eol.Error(); !strings.Contains(got, "replay incomplete") ||
		!strings.Contains(got, "core 2 ran out of recorded intervals before HALT") {
		t.Fatalf("end-of-log rendering: %q", got)
	}
	if strings.Contains(eol.Error(), "-1") {
		t.Fatalf("end-of-log rendering leaks the -1 sentinel: %q", eol.Error())
	}
	if !eol.EndOfLog() {
		t.Fatal("EndOfLog() = false for interval -1")
	}

	mid := &ErrDiverged{Core: 1, Interval: 3, Seq: 7, Cause: cause}
	if got := mid.Error(); !strings.Contains(got, "replay diverged: core 1 interval 3 (seq 7)") {
		t.Fatalf("in-interval rendering: %q", got)
	}
	if mid.EndOfLog() {
		t.Fatal("EndOfLog() = true for a real interval")
	}

	deg := Degradation{Core: 0, Interval: -1, Cause: cause}
	if got := deg.String(); !strings.Contains(got, "recorded intervals ended before HALT") {
		t.Fatalf("degradation rendering: %q", got)
	}
	if !deg.EndOfLog() || (Degradation{Interval: 2}).EndOfLog() {
		t.Fatal("Degradation.EndOfLog misclassifies")
	}
}
