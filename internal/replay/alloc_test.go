package replay_test

import (
	"testing"

	"relaxreplay/internal/core"
	"relaxreplay/internal/machine"
	"relaxreplay/internal/replay"
	"relaxreplay/internal/workload"
)

// runAllocBudget bounds the heap allocations of one replay.New plus Run
// of lu at 8 cores, scale 1: about 1.5x the count measured when the
// budget was set. The replayer's memory, threads, interval order and
// touched pages are new each run.
const runAllocBudget = 74

// raceEnabled is set under -race (race_test.go), where allocation
// counts are not the program's own.
var raceEnabled bool

func TestRunAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("records a full kernel")
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
	patched, err := res.Log.Patch()
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		r, err := replay.New(replay.DefaultConfig(), patched, wl.Progs, wl.InitMem, nil)
		if err == nil {
			_, err = r.Run()
		}
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs > runAllocBudget {
		t.Fatalf("replaying lu made %.0f heap allocations, budget %d", allocs, runAllocBudget)
	}
	t.Logf("%.0f allocations (budget %d)", allocs, runAllocBudget)
}
