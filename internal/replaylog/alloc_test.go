package replaylog_test

import (
	"io"
	"testing"

	"relaxreplay/internal/core"
	"relaxreplay/internal/machine"
	"relaxreplay/internal/replaylog"
	"relaxreplay/internal/workload"
)

// encodeAllocBudget bounds the heap allocations of one v3 encode of lu
// at 8 cores, scale 1, with the flate stage fanned out over all 8
// streams: about 1.5x the count measured when the budget was set. The
// encoder, its output buffer and its flate writers are pooled, so a
// steady stream of encodes allocates only to start its workers.
const encodeAllocBudget = 15

// raceEnabled is set under -race (race_test.go), where allocation
// counts are not the program's own.
var raceEnabled bool

// recordLu records lu at 8 cores, scale 1, under the default Opt
// recorder.
func recordLu(t *testing.T) *replaylog.Log {
	t.Helper()
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
	return res.Log
}

func TestEncodeV3AllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("records a full kernel")
	}
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled items at random")
	}
	l := recordLu(t)
	allocs := testing.AllocsPerRun(10, func() {
		if err := replaylog.EncodeV3Workers(io.Discard, l, replaylog.V3Options{}, nil, 8); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > encodeAllocBudget {
		t.Fatalf("encoding lu made %.0f heap allocations, budget %d", allocs, encodeAllocBudget)
	}
	t.Logf("%.0f allocations (budget %d)", allocs, encodeAllocBudget)
}
