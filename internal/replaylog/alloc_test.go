package replaylog_test

import (
	"bytes"
	"io"
	"testing"

	"relaxreplay/internal/core"
	"relaxreplay/internal/machine"
	"relaxreplay/internal/replaylog"
	"relaxreplay/internal/workload"
)

// Allocation budgets for one pass of lu at 8 cores, scale 1, through
// each layer of the write and read paths: about 1.5x the count
// measured when the budget was set.
const (
	// encodeAllocBudget bounds one v3 encode with the flate stage fanned
	// out over all 8 streams. The encoder, its output buffer and its
	// flate writers are pooled, so a steady stream of encodes allocates
	// only to start its workers.
	encodeAllocBudget = 15
	// encodeV2AllocBudget bounds one v2 encode, which writes through a
	// pooled buffer and allocates nothing in steady state.
	encodeV2AllocBudget = 2
	// decodeAllocBudget bounds one strict v3 decode. Decode is the
	// salvaging DecodeParallel plus rep.Err, so this times both entry
	// points: the decoded log is new memory, one entry slice per
	// interval.
	decodeAllocBudget = 3500
	// patchAllocBudget bounds one Patch: the log, its stream table,
	// one scratch count slice, and per stream one interval slice and
	// one backing entry array.
	patchAllocBudget = 28
)

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

// skipAllocBudget skips a budget test under -short, where recording a
// full kernel is too slow, and under -race, whose sync.Pool drops
// pooled items at random, so counts are not the program's own.
func skipAllocBudget(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("records a full kernel")
	}
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled items at random")
	}
}

// checkAllocBudget fails when f, run 10 times, averages more than
// budget heap allocations.
func checkAllocBudget(t *testing.T, what string, budget int, f func()) {
	t.Helper()
	allocs := testing.AllocsPerRun(10, f)
	if allocs > float64(budget) {
		t.Fatalf("%s lu made %.0f heap allocations, budget %d", what, allocs, budget)
	}
	t.Logf("%.0f allocations (budget %d)", allocs, budget)
}

func TestEncodeV3AllocBudget(t *testing.T) {
	skipAllocBudget(t)
	l := recordLu(t)
	checkAllocBudget(t, "encoding", encodeAllocBudget, func() {
		if err := replaylog.EncodeV3Workers(io.Discard, l, 8); err != nil {
			t.Fatal(err)
		}
	})
}

func TestEncodeV2AllocBudget(t *testing.T) {
	skipAllocBudget(t)
	l := recordLu(t)
	checkAllocBudget(t, "v2-encoding", encodeV2AllocBudget, func() {
		if err := replaylog.Encode(io.Discard, l); err != nil {
			t.Fatal(err)
		}
	})
}

// encodedLu returns lu's recording as v3 bytes.
func encodedLu(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := replaylog.EncodeV3(&buf, recordLu(t)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestDecodeAllocBudget(t *testing.T) {
	skipAllocBudget(t)
	data := encodedLu(t)
	checkAllocBudget(t, "decoding", decodeAllocBudget, func() {
		if _, err := replaylog.Decode(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	})
}

func TestPatchAllocBudget(t *testing.T) {
	skipAllocBudget(t)
	l := recordLu(t)
	checkAllocBudget(t, "patching", patchAllocBudget, func() {
		if _, err := l.Patch(); err != nil {
			t.Fatal(err)
		}
	})
}
