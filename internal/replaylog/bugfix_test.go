package replaylog

import (
	"bytes"
	"testing"
)

// Regression: the CRC-mismatch resync path must count every byte it
// skips. Before the fix the first byte after a bad checksum was
// consumed by pos++ without touching BytesSkipped, so the report
// under-counted by one per corrupted frame.
func TestBytesSkippedExactOnCRCMismatch(t *testing.T) {
	run := func(t *testing.T, data []byte) {
		frames := frameSpans(t, data)
		var iv frameSpan
		found := false
		for _, f := range frames {
			if f.typ == FrameInterval || f.typ == FrameIvGroup {
				iv = f
				found = true
				break
			}
		}
		if !found {
			t.Fatal("no interval/group frame")
		}
		bad := append([]byte(nil), data...)
		bad[iv.end-5] ^= 0xFF // last payload byte: CRC now fails

		_, rep, err := DecodeParallel(bytes.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Dropped != 1 {
			t.Fatalf("Dropped = %d, want 1 (%+v)", rep.Dropped, rep.Frames)
		}
		// The resync walks every byte from the bad frame's sync word to
		// the next frame's sync word: exactly the frame's length.
		if want := int64(iv.end - iv.start); rep.BytesSkipped != want {
			t.Fatalf("BytesSkipped = %d, want %d", rep.BytesSkipped, want)
		}
	}
	t.Run("v2", func(t *testing.T) { run(t, encodeBytes(t, sampleLog())) })
	t.Run("v3", func(t *testing.T) { run(t, encodeV3Bytes(t, sampleLog(), v3Options{})) })
}

// Regression: PatchPartial must check Offset > Seq before computing
// the bySeq key. Before the fix, iv.Seq-uint64(e.Offset) wrapped and
// could alias a real high sequence number, grafting the store onto an
// unrelated interval before the guard dropped... nothing.
func TestPatchPartialOffsetUnderflow(t *testing.T) {
	// Seq 1 with Offset 3 wraps to 2^64-2; an interval with exactly
	// that sequence number is the collision target.
	var collider uint64 = 1<<64 - 2
	l := &Log{
		Cores: 1,
		Streams: []CoreLog{{Core: 0, Intervals: []Interval{
			{Seq: 1, CISN: 1, Timestamp: 10, Entries: []Entry{
				{Type: ReorderedStore, Addr: 0x40, Value: 99, Offset: 3},
			}},
			{Seq: collider, CISN: uint16(collider), Timestamp: 20, Entries: []Entry{
				{Type: InorderBlock, Size: 1},
			}},
		}}},
	}
	p, dropped, err := l.PatchPartial()
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
	for _, e := range p.Streams[0].Intervals[1].Entries {
		if e.Type == PatchedStore {
			t.Fatalf("store with wrapped offset grafted onto colliding interval %d", collider)
		}
	}
	if p.Streams[0].Intervals[0].Entries[0].Type != Dummy {
		t.Fatal("counting position not dummied")
	}
}

// Regression for the collapsed failed-CAS branches: a ReorderedAtomic
// with DidWrite=false must patch to a pure value injection — no
// PatchedStore anywhere — under both Patch and PatchPartial.
func TestFailedCASPatchesToValueInjectionOnly(t *testing.T) {
	mk := func() *Log {
		return &Log{
			Cores: 1,
			Streams: []CoreLog{{Core: 0, Intervals: []Interval{
				{Seq: 0, Timestamp: 1, Entries: []Entry{{Type: InorderBlock, Size: 4}}},
				{Seq: 1, Timestamp: 2, Entries: []Entry{
					{Type: ReorderedAtomic, Addr: 8, Value: 9, StoreValue: 10, DidWrite: false, Offset: 1},
				}},
			}}},
		}
	}
	check := func(t *testing.T, p *Log) {
		t.Helper()
		for _, iv := range p.Streams[0].Intervals {
			for _, e := range iv.Entries {
				if e.Type == PatchedStore {
					t.Fatalf("failed CAS emitted a PatchedStore: %+v", e)
				}
			}
		}
		got := p.Streams[0].Intervals[1].Entries[0]
		if got.Type != ReorderedLoad || got.Value != 9 {
			t.Fatalf("counting slot = %+v, want ReorderedLoad value 9", got)
		}
	}
	t.Run("Patch", func(t *testing.T) {
		p, err := mk().Patch()
		if err != nil {
			t.Fatal(err)
		}
		check(t, p)
	})
	t.Run("PatchPartial", func(t *testing.T) {
		p, dropped, err := mk().PatchPartial()
		if err != nil {
			t.Fatal(err)
		}
		if dropped != 0 {
			t.Fatalf("dropped = %d, want 0", dropped)
		}
		check(t, p)
	})
}

// Table test pinning inferHeader's rules for header-lost logs.
func TestInferHeaderRules(t *testing.T) {
	stream := func(core int, types ...EntryType) CoreLog {
		var es []Entry
		for _, ty := range types {
			e := Entry{Type: ty}
			if ty == InorderBlock {
				e.Size = 1
			}
			es = append(es, e)
		}
		return CoreLog{Core: core, Intervals: []Interval{{Entries: es}}}
	}
	cases := []struct {
		name        string
		log         *Log
		wantCores   int
		wantPatched bool
	}{
		{
			name:      "patched-store-implies-patched",
			log:       &Log{Streams: []CoreLog{stream(0, InorderBlock, PatchedStore)}},
			wantCores: 1, wantPatched: true,
		},
		{
			name:      "dummy-implies-patched",
			log:       &Log{Streams: []CoreLog{stream(2, Dummy)}},
			wantCores: 3, wantPatched: true,
		},
		{
			name:      "reordered-store-implies-unpatched",
			log:       &Log{Streams: []CoreLog{stream(0, ReorderedStore)}},
			wantCores: 1, wantPatched: false,
		},
		{
			name:      "reordered-atomic-implies-unpatched",
			log:       &Log{Streams: []CoreLog{stream(1, InorderBlock, ReorderedAtomic)}},
			wantCores: 2, wantPatched: false,
		},
		{
			// Only InorderBlock/ReorderedLoad survive: either variant
			// could have produced them; inference defaults to unpatched.
			name:      "ambiguous-defaults-to-unpatched",
			log:       &Log{Streams: []CoreLog{stream(0, InorderBlock, ReorderedLoad)}},
			wantCores: 1, wantPatched: false,
		},
		{
			// First decisive entry wins even with later decisive
			// entries on other cores appearing earlier in core order.
			name: "first-decisive-entry-wins",
			log: &Log{Streams: []CoreLog{
				stream(0, InorderBlock, ReorderedLoad),
				stream(1, PatchedStore),
			}},
			wantCores: 2, wantPatched: true,
		},
		{
			name:      "inputs-extend-core-count",
			log:       &Log{Inputs: [][]uint64{nil, nil, nil, {1}}, Streams: []CoreLog{stream(0, InorderBlock)}},
			wantCores: 4, wantPatched: false,
		},
		{
			name:      "empty-log",
			log:       &Log{},
			wantCores: 0, wantPatched: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inferHeader(tc.log)
			if tc.log.Cores != tc.wantCores {
				t.Errorf("Cores = %d, want %d", tc.log.Cores, tc.wantCores)
			}
			if tc.log.Patched != tc.wantPatched {
				t.Errorf("Patched = %v, want %v", tc.log.Patched, tc.wantPatched)
			}
		})
	}
}
