package replaylog

import (
	"bytes"
	"io"
	"testing"
)

// benchLog builds a synthetic but realistically-shaped log: mostly
// InorderBlock entries with a sprinkling of reordered accesses and
// cross-core dependence edges, mirroring what an Opt recording of a
// SPLASH kernel produces.
func benchLog(cores, intervalsPerCore int) *Log {
	l := &Log{Cores: cores, Variant: "opt"}
	for c := 0; c < cores; c++ {
		l.Inputs = append(l.Inputs, []uint64{uint64(c), uint64(c) * 7, uint64(c) * 13})
		s := CoreLog{Core: c}
		for i := 0; i < intervalsPerCore; i++ {
			iv := Interval{
				Seq:       uint64(i + 1),
				CISN:      uint16(i + 1),
				Timestamp: uint64(c + i*cores),
			}
			iv.Entries = append(iv.Entries,
				Entry{Type: InorderBlock, Size: uint32(40 + i%17)},
				Entry{Type: ReorderedLoad, Value: uint64(i) * 3},
				Entry{Type: InorderBlock, Size: uint32(10 + i%5)},
			)
			if i%3 == 0 {
				iv.Entries = append(iv.Entries,
					Entry{Type: ReorderedStore, Addr: uint64(0x1000 + i*8), Value: uint64(i), Offset: uint16(i % 4)})
			}
			if i%5 == 0 {
				iv.Entries = append(iv.Entries,
					Entry{Type: ReorderedAtomic, Addr: uint64(0x2000 + i*8), Value: uint64(i), StoreValue: uint64(i + 1), Offset: 0, DidWrite: true})
			}
			if i%4 == 1 && cores > 1 {
				iv.Preds = append(iv.Preds, Pred{Core: (c + 1) % cores, Seq: uint64(i)})
			}
			s.Intervals = append(s.Intervals, iv)
		}
		l.Streams = append(l.Streams, s)
	}
	return l
}

// BenchmarkEncode measures the v2 encoder hot loop (the acceptance
// metric of record for allocs/op: see BENCH_5.json).
func BenchmarkEncode(b *testing.B) {
	l := benchLog(8, 256)
	var buf bytes.Buffer
	if err := Encode(&buf, l); err != nil {
		b.Fatal(err)
	}
	bytesPerOp := buf.Len()
	b.SetBytes(int64(bytesPerOp))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Encode(io.Discard, l); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecode measures the strict v2 decode path on a clean log.
func BenchmarkDecode(b *testing.B) {
	l := benchLog(8, 256)
	var buf bytes.Buffer
	if err := Encode(&buf, l); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeDamaged measures the resyncing decoder on a log with
// a corrupt frame in the middle, the graceful-degradation hot path.
func BenchmarkDecodeDamaged(b *testing.B) {
	l := benchLog(8, 256)
	var buf bytes.Buffer
	if err := Encode(&buf, l); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)/2] ^= 0xFF // one flipped byte mid-stream
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeParallel(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPatch measures the off-line patching pass (paper §3.3.2).
func BenchmarkPatch(b *testing.B) {
	l := benchLog(8, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Patch(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeV3 measures the compressed v3 encoder (delta/varint
// group bodies plus the flate stage) on the same synthetic log.
func BenchmarkEncodeV3(b *testing.B) {
	l := benchLog(8, 256)
	var buf bytes.Buffer
	if err := EncodeV3(&buf, l); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := EncodeV3(io.Discard, l); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeV3 measures the v3 decode, its per-core streams on
// up to GOMAXPROCS workers (-cpu 1 times the one-worker loop).
func BenchmarkDecodeV3(b *testing.B) {
	l := benchLog(8, 256)
	var buf bytes.Buffer
	if err := EncodeV3(&buf, l); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeParallel(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeInterval measures one indexed seek (end frame +
// index footer + one group frame) against the full-scan alternative
// the index replaces.
func BenchmarkDecodeInterval(b *testing.B) {
	l := benchLog(8, 256)
	var buf bytes.Buffer
	if err := EncodeV3(&buf, l); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	ix, err := OpenIndexed(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		b.Fatal(err)
	}
	if !ix.Indexed() {
		b.Fatalf("index not live: %s", ix.Reason())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.DecodeInterval(i%8, uint64(i%256)+1); err != nil {
			b.Fatal(err)
		}
	}
}
