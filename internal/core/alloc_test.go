package core

import (
	"testing"

	"relaxreplay/internal/machine"
	"relaxreplay/internal/workload"
)

// recordAllocBudget bounds the heap allocations of one recording of lu
// at 8 cores, scale 1, at about 1.5x the ~26.6k it makes (amd64,
// go1.24). lu squashes nearly one uop per retired instruction, so a
// record path that allocated per dispatched instruction, squashed
// uops included, would blow the budget more than tenfold. What the
// budget covers is per-recording set-up (caches, cores, recorders),
// pools warming up, the log itself and the coherence layer.
const recordAllocBudget = 39_000

func TestRecordAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("records a full kernel twice")
	}
	k, err := workload.ByName("lu")
	if err != nil {
		t.Fatal(err)
	}
	wl := k.Build(8, 1)
	w := Workload{Name: wl.Name, Progs: wl.Progs, Inputs: wl.Inputs, InitMem: wl.InitMem}
	var res *Result
	allocs := testing.AllocsPerRun(1, func() {
		res, err = Record(machine.DefaultConfig(8), DefaultConfig(Opt), w)
		if err != nil {
			t.Fatal(err)
		}
	})
	var retired, squashed uint64
	for _, s := range res.CoreStats {
		retired += s.Retired
		squashed += s.SquashedUops
	}
	if squashed < retired/2 {
		t.Fatalf("lu squashed %d uops for %d retired; the budget assumes a squash-heavy kernel", squashed, retired)
	}
	if allocs > recordAllocBudget {
		t.Fatalf("recording lu made %.0f heap allocations, budget %d", allocs, recordAllocBudget)
	}
	t.Logf("%.0f allocations (budget %d), %d retired, %d squashed", allocs, recordAllocBudget, retired, squashed)
}
