package relaxreplay

import (
	"bytes"
	"io"
	"testing"
)

// Pipeline benchmarks: one per stage of the record → encode → decode →
// replay pipeline, on a fixed small workload so they are cheap enough
// for the CI bench smoke. The pipeline rows of the frozen BENCH_*.json
// files were measured with the same bodies; run them with
// `go test -run '^$' -bench Pipeline -benchmem .`.

// benchPipelineRecording records the reference workload once, for the
// stages that consume a recording.
func benchPipelineRecording(b *testing.B) *Recording {
	b.Helper()
	cfg := DefaultConfig()
	cfg.Cores = 4
	rec, err := Record(cfg, MustKernel("fft", cfg.Cores, 1))
	if err != nil {
		b.Fatal(err)
	}
	return rec
}

// BenchmarkPipelineRecord measures the full recording path (simulated
// machine + recorder) in cycles simulated per second of wall time.
func BenchmarkPipelineRecord(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Cores = 4
	w := MustKernel("fft", cfg.Cores, 1)
	b.ReportAllocs()
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		rec, err := Record(cfg, w)
		if err != nil {
			b.Fatal(err)
		}
		cycles += rec.Cycles()
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
}

// BenchmarkPipelineEncode measures serializing a recorded log to log
// format v3, in log bytes produced per second.
func BenchmarkPipelineEncode(b *testing.B) {
	rec := benchPipelineRecording(b)
	var buf bytes.Buffer
	if err := rec.WriteLog(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rec.WriteLog(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineDecode measures the strict decode of a recorded log.
func BenchmarkPipelineDecode(b *testing.B) {
	rec := benchPipelineRecording(b)
	var buf bytes.Buffer
	if err := rec.WriteLog(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadLog(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineReplay measures patch + sequential replay + full
// verification of a recorded log.
func BenchmarkPipelineReplay(b *testing.B) {
	rec := benchPipelineRecording(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rec.Replay(); err != nil {
			b.Fatal(err)
		}
	}
}
