package provenance

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestNilSafety: every capture method must be a no-op on a nil
// collector / recorder — that is the whole disabled path.
func TestNilSafety(t *testing.T) {
	var c *Collector
	cr := c.Core(3)
	if cr != nil {
		t.Fatalf("nil collector handed out a recorder: %v", cr)
	}
	cr.NoteConflict(0x40, true, 1)
	cr.NoteReorder(ReorderStore, 2, 100)
	cr.NoteTerminate(0, CauseConflict, 4, 2, 101)
	if got := c.Snapshot(); got != nil {
		t.Fatalf("nil collector snapshot = %v, want nil", got)
	}
}

// TestCaptureSequence drives a plausible recorder call sequence and
// checks the snapshot reflects it exactly.
func TestCaptureSequence(t *testing.T) {
	c := NewCollector()
	r0 := c.Core(0)
	r2 := c.Core(2)

	// Core 0, interval 0: two reorders then a conflict termination.
	r0.NoteReorder(ReorderLoad, 1, 10)
	r0.NoteReorder(ReorderStore, 2, 12)
	r0.NoteConflict(0x80, true, 2)
	r0.NoteTerminate(0, CauseConflict, 5, 3, 20)
	// Core 0, interval 1: clean size termination — pending conflict
	// state must have been reset.
	r0.NoteTerminate(1, CauseSize, 0, 1, 40)
	// Core 2: a single final termination with no reorders.
	r2.NoteTerminate(0, CauseFinal, 2, 0, 99)

	snap := c.Snapshot()
	want := []CoreProvenance{
		{Core: 0, Records: []Record{
			{Seq: 0, Cause: CauseConflict, Cycle: 20, TRAQOccupancy: 5, SnoopNonzero: 3,
				ConflictLine: 0x80, ConflictWrite: true, RemoteCore: 2,
				Reorders: []Reorder{{Kind: ReorderLoad, Offset: 1, Cycle: 10}, {Kind: ReorderStore, Offset: 2, Cycle: 12}}},
			{Seq: 1, Cause: CauseSize, Cycle: 40, SnoopNonzero: 1, RemoteCore: -1},
		}},
		{Core: 2, Records: []Record{
			{Seq: 0, Cause: CauseFinal, Cycle: 99, TRAQOccupancy: 2, RemoteCore: -1},
		}},
	}
	if !reflect.DeepEqual(snap, want) {
		t.Fatalf("snapshot mismatch:\n got %+v\nwant %+v", snap, want)
	}
}

// TestReorderBuffersDoNotAlias: the scratch reorder buffer is reused
// across intervals; records must own their copies.
func TestReorderBuffersDoNotAlias(t *testing.T) {
	c := NewCollector()
	r := c.Core(0)
	r.NoteReorder(ReorderLoad, 1, 5)
	r.NoteTerminate(0, CauseSize, 0, 0, 6)
	r.NoteReorder(ReorderAtomic, 7, 8)
	r.NoteTerminate(1, CauseSize, 0, 0, 9)
	snap := c.Snapshot()
	first := snap[0].Records[0].Reorders
	if len(first) != 1 || first[0].Kind != ReorderLoad {
		t.Fatalf("first interval's reorders clobbered: %+v", first)
	}
	second := snap[0].Records[1].Reorders
	if len(second) != 1 || second[0].Kind != ReorderAtomic {
		t.Fatalf("second interval's reorders wrong: %+v", second)
	}
}

// TestSnapshotSkipsEmptyCores: cores that never terminated an interval
// do not appear (keeps wire frames dense).
func TestSnapshotSkipsEmptyCores(t *testing.T) {
	c := NewCollector()
	c.Core(0)
	c.Core(1).NoteTerminate(0, CauseFinal, 0, 0, 1)
	snap := c.Snapshot()
	if len(snap) != 1 || snap[0].Core != 1 {
		t.Fatalf("snapshot = %+v, want only core 1", snap)
	}
}

// TestCauseJSON pins the self-describing cause rendering both ways.
func TestCauseJSON(t *testing.T) {
	rec := Record{Seq: 3, Cause: CauseConflict, RemoteCore: 1}
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var back Record
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec, back) {
		t.Fatalf("JSON round trip changed the record: %+v -> %s -> %+v", rec, b, back)
	}
	var probe struct {
		Cause string `json:"cause"`
	}
	if err := json.Unmarshal(b, &probe); err != nil || probe.Cause != "conflict" {
		t.Fatalf("cause rendered as %q (err %v), want \"conflict\"", probe.Cause, err)
	}
}

// TestCauseStrings covers the display names rrlog prints.
func TestCauseStrings(t *testing.T) {
	cases := map[Cause]string{
		CauseUnknown: "unknown", CauseConflict: "conflict",
		CauseSize: "size", CauseFinal: "final", Cause(9): "cause(9)",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("Cause(%d).String() = %q, want %q", c, got, want)
		}
	}
	kinds := map[uint8]string{ReorderLoad: "load", ReorderStore: "store", ReorderAtomic: "atomic", 9: "kind(9)"}
	for k, want := range kinds {
		if got := ReorderKindString(k); got != want {
			t.Errorf("ReorderKindString(%d) = %q, want %q", k, got, want)
		}
	}
}

// TestZeroAllocWhenDisabled is the contract the recorder hot path
// relies on: nil-receiver capture must not allocate.
func TestZeroAllocWhenDisabled(t *testing.T) {
	var cr *CoreRecorder
	n := testing.AllocsPerRun(100, func() {
		cr.NoteConflict(1, false, 0)
		cr.NoteReorder(ReorderLoad, 0, 0)
		cr.NoteTerminate(0, CauseSize, 0, 0, 0)
	})
	if n != 0 {
		t.Fatalf("disabled capture allocates %.1f allocs/op, want 0", n)
	}
}

// TestEnabledCaptureAllocs pins the enabled path: once the record
// buffers are warm, an interval without reorders allocates nothing and
// one with a reorder allocates only the record's own copy of its
// instants.
func TestEnabledCaptureAllocs(t *testing.T) {
	cr := NewCollector().Core(0)
	var seq uint64
	plain := func() {
		seq++
		cr.NoteConflict(seq, true, 1)
		cr.NoteTerminate(seq, CauseConflict, 3, 1, seq)
	}
	reordered := func() {
		seq++
		cr.NoteReorder(ReorderLoad, 2, seq)
		cr.NoteTerminate(seq, CauseSize, 3, 1, seq)
	}
	for i := 0; i < 4096; i++ {
		reordered()
	}
	if n := testing.AllocsPerRun(100, plain); n != 0 {
		t.Errorf("plain interval allocates %.0f allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, reordered); n != 1 {
		t.Errorf("interval with a reorder allocates %.0f allocs/op, want 1 (the record's copy of its instants)", n)
	}
}
