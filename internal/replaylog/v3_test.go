package replaylog

import (
	"bytes"
	"compress/flate"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"relaxreplay/internal/frame"
)

func encodeV3Bytes(t testing.TB, l *Log, opts v3Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := encodeV3(&buf, l, opts, nil, runtime.GOMAXPROCS(0)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// genLog builds a deterministic multi-group log: `cores` streams of
// `n` intervals with a mix of every encodable entry type.
func genLog(cores, n int) *Log {
	rng := rand.New(rand.NewSource(7))
	l := &Log{Cores: cores, Variant: "opt", Inputs: make([][]uint64, cores)}
	for c := 0; c < cores; c++ {
		l.Inputs[c] = []uint64{uint64(c), uint64(c) * 3}
		s := CoreLog{Core: c}
		ts := uint64(0)
		for i := 0; i < n; i++ {
			ts += uint64(rng.Intn(500) + 1)
			iv := Interval{Seq: uint64(i), CISN: uint16(i), Timestamp: ts}
			iv.Entries = append(iv.Entries, Entry{Type: InorderBlock, Size: uint32(rng.Intn(200) + 1)})
			switch i % 4 {
			case 0:
				iv.Entries = append(iv.Entries, Entry{Type: ReorderedLoad, Value: rng.Uint64()})
			case 1:
				iv.Entries = append(iv.Entries, Entry{Type: ReorderedStore, Addr: 0x10000 + uint64(rng.Intn(1<<12))*8, Value: rng.Uint64(), Offset: uint16(rng.Intn(i + 1))})
			case 2:
				iv.Entries = append(iv.Entries, Entry{
					Type: ReorderedAtomic, Addr: 0x10000 + uint64(rng.Intn(1<<12))*8, Value: rng.Uint64(),
					StoreValue: rng.Uint64(), DidWrite: rng.Intn(2) == 0, Offset: uint16(rng.Intn(i + 1)),
				})
			}
			if i%7 == 0 && c > 0 {
				iv.Preds = append(iv.Preds, Pred{Core: c - 1, Seq: uint64(i)})
			}
			s.Intervals = append(s.Intervals, iv)
		}
		l.Streams = append(l.Streams, s)
	}
	return l
}

func TestEncodeV3RoundTrip(t *testing.T) {
	l := sampleLog()
	data := encodeV3Bytes(t, l, v3Options{})
	got, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(l, got) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", l, got)
	}
	// v3 encoding is deterministic: same log, same bytes.
	if !bytes.Equal(data, encodeV3Bytes(t, l, v3Options{})) {
		t.Fatal("EncodeV3 is not deterministic")
	}
	_, rep, err := DecodeParallel(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Version != 3 || !rep.Clean() {
		t.Fatalf("clean v3 decode reported %+v", rep)
	}
}

func TestEncodeV3OptionsRoundTrip(t *testing.T) {
	big := genLog(3, 100)
	for _, opts := range []v3Options{
		{},
		{groupSize: 1},
		{groupSize: 7},
		{groupSize: 1 << 20}, // clamped
		{noCompress: true},
		{groupSize: 3, noCompress: true},
	} {
		data := encodeV3Bytes(t, big, opts)
		got, err := Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
		if !reflect.DeepEqual(big, got) {
			t.Fatalf("opts %+v: round trip mismatch", opts)
		}
	}
}

// Property: v3 round-trips random structurally-valid logs.
func TestEncodeV3Property(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := randomLog(rng)
		var buf bytes.Buffer
		if err := EncodeV3(&buf, l); err != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(l, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeV3RejectsUnordered(t *testing.T) {
	l := sampleLog()
	l.Streams[0].Intervals[1].Seq = 0 // duplicate of interval 0
	var buf bytes.Buffer
	if err := EncodeV3(&buf, l); err == nil {
		t.Fatal("non-increasing Seq accepted")
	}
	l = sampleLog()
	l.Streams[0].Intervals[1].Timestamp = 1 // below interval 0's 100
	if err := EncodeV3(&buf, l); err == nil {
		t.Fatal("decreasing Timestamp accepted")
	}
}

func TestV3Compresses(t *testing.T) {
	l := genLog(4, 200)
	v2 := encodeBytes(t, l)
	v3 := encodeV3Bytes(t, l, v3Options{})
	if len(v3) >= len(v2) {
		t.Fatalf("v3 (%d B) not smaller than v2 (%d B)", len(v3), len(v2))
	}
	t.Logf("v2 %d B, v3 %d B, ratio %.3f", len(v2), len(v3), float64(len(v3))/float64(len(v2)))
}

// corrupted frame + destroyed index footer: the robust decoder loses
// exactly the damaged group and nothing else.
func TestV3SalvageCorruptGroupAndLostIndex(t *testing.T) {
	l := genLog(3, 64)
	data := encodeV3Bytes(t, l, v3Options{groupSize: 8})
	frames := frameSpans(t, data)
	var groups []frameSpan
	var index, end frameSpan
	for _, f := range frames {
		switch f.typ {
		case FrameIvGroup:
			groups = append(groups, f)
		case FrameIndex:
			index = f
		case FrameEnd:
			end = f
		}
	}
	if wantGroups := 3 * 8; len(groups) != wantGroups {
		t.Fatalf("got %d group frames, want %d", len(groups), wantGroups)
	}

	// Flip one payload byte in the 4th group frame (core 0, seqs
	// 24..31) and shred the index footer and end frame.
	bad := append([]byte(nil), data...)
	bad[groups[3].end-5] ^= 0xFF
	for i := index.start; i < end.end; i++ {
		bad[i] = 0xAA
	}

	got, rep, err := DecodeParallel(bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dropped != 1 || len(rep.Frames) != 1 {
		t.Fatalf("Dropped = %d, Frames = %v", rep.Dropped, rep.Frames)
	}
	if fe := rep.Frames[0]; fe.Type != FrameIvGroup || fe.Core != 0 {
		t.Fatalf("dropped frame misattributed: %+v", fe)
	}
	if !rep.Truncated {
		t.Error("destroyed end frame not reported as truncation")
	}
	if rep.MissingIntervals != 8 {
		t.Errorf("MissingIntervals = %d, want 8", rep.MissingIntervals)
	}
	// Core 0 lost exactly seqs 24..31; cores 1 and 2 are whole.
	want := map[uint64]bool{}
	for _, iv := range l.Streams[0].Intervals {
		if iv.Seq < 24 || iv.Seq > 31 {
			want[iv.Seq] = true
		}
	}
	gotSeqs := map[uint64]bool{}
	for _, iv := range got.Streams[0].Intervals {
		gotSeqs[iv.Seq] = true
	}
	if !reflect.DeepEqual(want, gotSeqs) {
		t.Errorf("core 0 recovered seqs %v, want %v", gotSeqs, want)
	}
	for c := 1; c < 3; c++ {
		if !reflect.DeepEqual(l.Streams[c], got.Streams[c]) {
			t.Errorf("core %d stream not fully recovered", c)
		}
	}
}

// A decode on four workers must equal the one-worker decode, bit for
// bit, on clean and damaged streams alike — log and report both.
func TestDecodeParallelMatchesRobust(t *testing.T) {
	l := genLog(4, 64)
	clean := encodeV3Bytes(t, l, v3Options{groupSize: 8})

	corrupt := append([]byte(nil), clean...)
	frames := frameSpans(t, clean)
	n := 0
	for _, f := range frames {
		if f.typ == FrameIvGroup {
			n++
			if n%5 == 0 {
				corrupt[f.start+10] ^= 0x55
			}
		}
	}
	truncated := clean[:len(clean)*2/3]

	for name, data := range map[string][]byte{"clean": clean, "corrupt": corrupt, "truncated": truncated} {
		gotR, repR, errR := decodeReader(bytes.NewReader(data), 1)
		gotP, repP, errP := decodeReader(bytes.NewReader(data), 4)
		if (errR == nil) != (errP == nil) {
			t.Fatalf("%s: error mismatch: %v vs %v", name, errR, errP)
		}
		if !reflect.DeepEqual(gotR, gotP) {
			t.Errorf("%s: logs differ between serial and parallel decode", name)
		}
		if !reflect.DeepEqual(repR, repP) {
			t.Errorf("%s: reports differ:\nserial:   %+v\nparallel: %+v", name, repR, repP)
		}
	}
}

// TestDecodeParallelSharedInflaters decodes a clean log and one with
// corrupt flate bodies under intact CRCs from several goroutines at
// once, each fanning its cores out over four workers that share the
// inflater pool. Every result must equal the serial decode's.
func TestDecodeParallelSharedInflaters(t *testing.T) {
	clean := encodeV3Bytes(t, benchLog(4, 128), v3Options{groupSize: 16})
	bad := append([]byte(nil), clean...)
	n := 0
	for _, f := range frameSpans(t, bad) {
		if f.typ == FrameIvGroup && bad[f.start+9]&flagFlate != 0 {
			if n++; n%3 == 0 {
				// Past sync, type, length, flags and a one-byte core:
				// a final block of the reserved type 3.
				bad[f.start+11] = 0x07
				reframe(bad, f.start, f.end)
			}
		}
	}
	inputs := [][]byte{clean, bad}
	var want []*Log
	var wantRep []*CorruptionReport
	for _, data := range inputs {
		l, rep, err := decodeReader(bytes.NewReader(data), 1)
		if err != nil {
			t.Fatal(err)
		}
		want, wantRep = append(want, l), append(wantRep, rep)
	}
	if wantRep[1].Dropped == 0 || wantRep[1].Frames[0].Reason != "corrupt flate body" {
		t.Fatalf("damaged log decoded as %+v, want dropped flate groups", wantRep[1])
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				for k, data := range inputs {
					got, rep, err := decodeReader(bytes.NewReader(data), 4)
					if err != nil || !reflect.DeepEqual(got, want[k]) || !reflect.DeepEqual(rep, wantRep[k]) {
						t.Errorf("input %d: concurrent decode differs from serial (err %v)", k, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// An inflater whose output buffer grew past maxPooledBuf goes back
// to the pool without it; a smaller buffer is kept for reuse.
func TestInflaterDropsLargeBuffer(t *testing.T) {
	for _, size := range []int{maxPooledBuf / 2, 2 * maxPooledBuf} {
		var comp bytes.Buffer
		fw, err := flate.NewWriter(&comp, flate.BestSpeed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fw.Write(make([]byte, size)); err != nil {
			t.Fatal(err)
		}
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
		f := &inflater{}
		if out, ok := f.inflate(comp.Bytes()); !ok || len(out) != size {
			t.Fatalf("inflate %d bytes: got %d, ok %v", size, len(out), ok)
		}
		f.reset()
		if kept := f.out.Cap() > 0; kept != (size <= maxPooledBuf) {
			t.Errorf("%d-byte output: pooled buffer cap %d", size, f.out.Cap())
		}
	}
}

func TestOpenIndexedSeeks(t *testing.T) {
	l := genLog(3, 50)
	data := encodeV3Bytes(t, l, v3Options{groupSize: 8})
	ix, err := OpenIndexed(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !ix.Indexed() {
		t.Fatalf("index not live: %s", ix.Reason())
	}
	if want := 3 * 7; ix.Spans() != want { // ceil(50/8) = 7 groups per core
		t.Fatalf("Spans = %d, want %d", ix.Spans(), want)
	}
	for _, s := range l.Streams {
		for i := range s.Intervals {
			want := &s.Intervals[i]
			got, err := ix.DecodeInterval(s.Core, want.Seq)
			if err != nil {
				t.Fatalf("core %d seq %d: %v", s.Core, want.Seq, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("core %d seq %d: mismatch\nwant %+v\n got %+v", s.Core, want.Seq, want, got)
			}
		}
	}
	if _, err := ix.DecodeInterval(0, 999); err == nil {
		t.Error("absent seq found")
	}
	if _, err := ix.DecodeInterval(17, 0); err == nil {
		t.Error("absent core found")
	}
}

func TestOpenIndexedFallsBack(t *testing.T) {
	l := genLog(2, 40)
	data := encodeV3Bytes(t, l, v3Options{groupSize: 8})
	frames := frameSpans(t, data)

	check := func(t *testing.T, ix *IndexedLog) {
		t.Helper()
		for _, s := range l.Streams {
			for i := range s.Intervals {
				want := &s.Intervals[i]
				got, err := ix.DecodeInterval(s.Core, want.Seq)
				if err != nil {
					t.Fatalf("core %d seq %d: %v", s.Core, want.Seq, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("core %d seq %d mismatch", s.Core, want.Seq)
				}
			}
		}
	}

	t.Run("v2-file", func(t *testing.T) {
		v2 := encodeBytes(t, l)
		ix, err := OpenIndexed(bytes.NewReader(v2), int64(len(v2)))
		if err != nil {
			t.Fatal(err)
		}
		if ix.Indexed() {
			t.Fatal("v2 file claims an index")
		}
		check(t, ix)
	})

	t.Run("destroyed-end-frame", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		for _, f := range frames {
			if f.typ == FrameEnd {
				bad[f.start] = 0x00 // break the sync word
			}
		}
		ix, err := OpenIndexed(bytes.NewReader(bad), int64(len(bad)))
		if err != nil {
			t.Fatal(err)
		}
		if ix.Indexed() {
			t.Fatal("damaged end frame but index still live")
		}
		check(t, ix)
	})

	t.Run("corrupt-index-frame", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		for _, f := range frames {
			if f.typ == FrameIndex {
				bad[f.start+12] ^= 0xFF
			}
		}
		ix, err := OpenIndexed(bytes.NewReader(bad), int64(len(bad)))
		if err != nil {
			t.Fatal(err)
		}
		if ix.Indexed() {
			t.Fatal("corrupt index frame but index still live")
		}
		check(t, ix)
	})

	// A CRC-valid footer whose span has Offset 6 and Length 2^63-1:
	// Offset+Length wraps negative, so a sum-based range check accepted
	// the span and the seek's make([]byte, Length) panicked.
	t.Run("overflowing-span", func(t *testing.T) {
		var head, end []byte
		for _, f := range frames {
			switch f.typ {
			case FrameIndex:
				head = data[:f.start]
			case FrameEnd:
				end = data[f.start:f.end]
			}
		}
		var p frame.Buf
		p.Uvarint(1)         // one span
		p.Uvarint(0)         // core
		p.Uvarint(0)         // first seq
		p.Uvarint(0)         // seq range
		p.Uvarint(6)         // offset
		p.Uvarint(1<<63 - 1) // length
		bad := append(append([]byte(nil), head...), frameBytes(FrameIndex, p.Bytes())...)
		bad = append(bad, end...)
		ix, err := OpenIndexed(bytes.NewReader(bad), int64(len(bad)))
		if err != nil {
			t.Fatal(err)
		}
		if ix.Indexed() {
			t.Fatal("overflowing span accepted")
		}
		check(t, ix)
	})

	t.Run("corrupt-group-degrades-lookup", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		var first frameSpan
		for _, f := range frames {
			if f.typ == FrameIvGroup {
				first = f
				break
			}
		}
		bad[first.end-5] ^= 0xFF
		ix, err := OpenIndexed(bytes.NewReader(bad), int64(len(bad)))
		if err != nil {
			t.Fatal(err)
		}
		if !ix.Indexed() {
			t.Fatalf("index should still be live: %s", ix.Reason())
		}
		// Seqs 0..7 of core 0 live in the shredded group: the seek hits
		// damage, degrades to the linear fallback, and the fallback
		// (like DecodeParallel) has lost them too.
		if _, err := ix.DecodeInterval(0, 0); err == nil {
			t.Error("interval in corrupt group served anyway")
		}
		// Everything outside the damaged group still seeks fine.
		got, err := ix.DecodeInterval(0, 12)
		if err != nil || got.Seq != 12 {
			t.Fatalf("seek outside damage: %+v, %v", got, err)
		}
	})
}

// v1 and v2 logs must keep decoding through the same entry points the
// v3 work touched.
func TestOldVersionsStillDecode(t *testing.T) {
	l := sampleLog()

	var v1 bytes.Buffer
	if err := encodeV1(&v1, l); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(v1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(l, got) {
		t.Fatal("v1 round trip broken")
	}

	v2 := encodeBytes(t, l)
	for name, dec := range map[string]func(*bytes.Reader) (*Log, *CorruptionReport, error){
		"serial":   func(r *bytes.Reader) (*Log, *CorruptionReport, error) { return decodeReader(r, 1) },
		"parallel": func(r *bytes.Reader) (*Log, *CorruptionReport, error) { return decodeReader(r, 4) },
	} {
		got, rep, err := dec(bytes.NewReader(v2))
		if err != nil || !rep.Clean() || rep.Version != 2 {
			t.Fatalf("%s: v2 decode err=%v rep=%+v", name, err, rep)
		}
		if !reflect.DeepEqual(l, got) {
			t.Fatalf("%s: v2 round trip broken", name)
		}
	}
}
