package replay

import (
	"bytes"
	"errors"
	"testing"

	"relaxreplay/internal/isa"
	"relaxreplay/internal/replaylog"
)

// FuzzReplayPartial drives the full degraded pipeline on arbitrary
// bytes: robust-decode → partial patch → partial replay under a
// watchdog. The invariant is the chaos-matrix contract: whatever the
// bytes, the pipeline never panics and never hangs — it returns a
// result (possibly degraded) or a typed error.
func FuzzReplayPartial(f *testing.F) {
	seed := func(l *replaylog.Log) {
		var buf bytes.Buffer
		if err := replaylog.Encode(&buf, l); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	seed(patchedLog(replaylog.Entry{Type: replaylog.InorderBlock, Size: 6}))
	seed(patchedLog(
		replaylog.Entry{Type: replaylog.InorderBlock, Size: 1},
		replaylog.Entry{Type: replaylog.ReorderedLoad, Value: 99},
		replaylog.Entry{Type: replaylog.InorderBlock, Size: 4},
	))
	seed(twoCoreLog())
	unpatched := &replaylog.Log{
		Cores: 1,
		Streams: []replaylog.CoreLog{{Core: 0, Intervals: []replaylog.Interval{
			{Seq: 0, Timestamp: 10, Entries: []replaylog.Entry{
				{Type: replaylog.InorderBlock, Size: 2},
				{Type: replaylog.ReorderedStore, Addr: 0x108, Value: 5, Offset: 0},
				{Type: replaylog.InorderBlock, Size: 3},
			}},
		}}},
		Inputs: make([][]uint64, 1),
	}
	seed(unpatched)

	f.Fuzz(func(t *testing.T, data []byte) {
		l, _, err := replaylog.DecodeParallel(bytes.NewReader(data))
		if err != nil {
			return
		}
		if l.Cores < 1 || l.Cores > 8 {
			return // fuzzed core counts up to MaxCores would just allocate threads
		}
		if !l.Patched {
			var derr error
			l, _, derr = l.PatchPartial()
			if derr != nil {
				return
			}
		}
		progs := make([]isa.Program, l.Cores)
		for i := range progs {
			progs[i] = prog()
		}
		for _, partial := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.AllowPartial = partial
			cfg.WatchdogSteps = 1 << 16 // bound fuzz-run work regardless of claimed sizes
			r, err := New(cfg, l, progs, nil, nil)
			if err != nil {
				continue // rejected (invalid log): a classified outcome
			}
			res, err := r.Run()
			if err == nil {
				if res == nil {
					t.Fatal("nil result with nil error")
				}
				continue
			}
			var div *ErrDiverged
			var stall *ErrStalled
			if !errors.As(err, &div) && !errors.As(err, &stall) {
				t.Fatalf("untyped replay failure: %v (%T)", err, err)
			}
			if partial && errors.As(err, &div) {
				t.Fatalf("AllowPartial leaked a divergence error: %v", err)
			}
		}
	})
}
