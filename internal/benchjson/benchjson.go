// Package benchjson runs the repo's pipeline benchmarks outside `go
// test` and renders the measurements as the BENCH_*.json schema
// (documented in EXPERIMENTS.md). cmd/rrbench's -benchjson flag is the
// entry point; the benchmark bodies mirror bench_pipeline_test.go and
// internal/replaylog's encode benchmark so both report the same
// numbers.
package benchjson

import (
	"bytes"
	"encoding/json"
	"io"
	"runtime"
	"testing"

	"relaxreplay"
	"relaxreplay/internal/replaylog"
)

// Result is one benchmark measurement.
type Result struct {
	Name       string `json:"name"`
	Iterations int    `json:"iterations,omitempty"`

	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`

	// CyclesPerSec reports simulated cycles per wall-clock second
	// (recording benchmarks only).
	CyclesPerSec float64 `json:"cycles_per_sec,omitempty"`
	// LogBytesPerSec reports encoded log bytes produced or consumed per
	// wall-clock second (encode/decode benchmarks only).
	LogBytesPerSec float64 `json:"log_bytes_per_sec,omitempty"`
	// CompressionRatio reports encoded-v3 bytes over encoded-v2 bytes
	// for the same log (encode-v3 benchmark only; < 1.0 means v3 is
	// smaller).
	CompressionRatio float64 `json:"compression_ratio,omitempty"`
}

// Report is the top-level BENCH_*.json document.
type Report struct {
	Schema   string `json:"schema"`
	GoOS     string `json:"goos"`
	GoArch   string `json:"goarch"`
	Workload string `json:"workload"`

	// HostCPUs is runtime.NumCPU() on the measuring host.
	HostCPUs int `json:"host_cpus"`

	// Results are the live measurements from this run.
	Results []Result `json:"results"`

	// BaselinePrePR pins the same benchmarks measured immediately
	// before the zero-alloc record/encode pass, so the file itself
	// documents the improvement (the acceptance bar was a >=50%
	// allocs/op reduction on the encode hot loop: 4137 -> single
	// digits).
	BaselinePrePR []Result `json:"baseline_pre_pr"`
}

// baselinePrePR: measured on the commit preceding the zero-alloc pass,
// same benchmark bodies, same machine class as CI.
var baselinePrePR = []Result{
	{Name: "record", NsPerOp: 9809363, BytesPerOp: 5535848, AllocsPerOp: 74510, CyclesPerSec: 196038},
	{Name: "encode", NsPerOp: 4943, AllocsPerOp: 67},
	{Name: "decode", NsPerOp: 9373, AllocsPerOp: 91},
	{Name: "replay", NsPerOp: 210206, AllocsPerOp: 81},
	{Name: "encode-synthetic", NsPerOp: 329755, BytesPerOp: 37408, AllocsPerOp: 4137},
	{Name: "decode-synthetic", NsPerOp: 835939, AllocsPerOp: 6932},
	{Name: "patch-synthetic", NsPerOp: 285371, AllocsPerOp: 2882},
}

// syntheticLog mirrors internal/replaylog's benchLog: a realistically
// shaped 8-core log (mostly InorderBlocks, some reordered accesses and
// cross-core dependence edges).
func syntheticLog(cores, intervalsPerCore int) *replaylog.Log {
	l := &replaylog.Log{Cores: cores, Variant: "opt"}
	for c := 0; c < cores; c++ {
		l.Inputs = append(l.Inputs, []uint64{uint64(c), uint64(c) * 7, uint64(c) * 13})
		s := replaylog.CoreLog{Core: c}
		for i := 0; i < intervalsPerCore; i++ {
			iv := replaylog.Interval{
				Seq:       uint64(i + 1),
				CISN:      uint16(i + 1),
				Timestamp: uint64(c + i*cores),
			}
			iv.Entries = append(iv.Entries,
				replaylog.Entry{Type: replaylog.InorderBlock, Size: uint32(40 + i%17)},
				replaylog.Entry{Type: replaylog.ReorderedLoad, Value: uint64(i) * 3},
				replaylog.Entry{Type: replaylog.InorderBlock, Size: uint32(10 + i%5)},
			)
			if i%3 == 0 {
				iv.Entries = append(iv.Entries,
					replaylog.Entry{Type: replaylog.ReorderedStore, Addr: uint64(0x1000 + i*8), Value: uint64(i), Offset: uint16(i % 4)})
			}
			if i%5 == 0 {
				iv.Entries = append(iv.Entries,
					replaylog.Entry{Type: replaylog.ReorderedAtomic, Addr: uint64(0x2000 + i*8), Value: uint64(i), StoreValue: uint64(i + 1), DidWrite: true})
			}
			if i%4 == 1 && cores > 1 {
				iv.Preds = append(iv.Preds, replaylog.Pred{Core: (c + 1) % cores, Seq: uint64(i)})
			}
			s.Intervals = append(s.Intervals, iv)
		}
		l.Streams = append(l.Streams, s)
	}
	return l
}

// convert flattens a testing.BenchmarkResult into the JSON schema.
func convert(name string, r testing.BenchmarkResult) Result {
	out := Result{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
	if cps, ok := r.Extra["cycles/s"]; ok {
		out.CyclesPerSec = cps
	}
	if r.Bytes > 0 && r.T > 0 {
		out.LogBytesPerSec = float64(r.Bytes) * float64(r.N) / r.T.Seconds()
	}
	return out
}

// Run executes every pipeline benchmark once (testing.Benchmark
// semantics: auto-scaled iteration counts) and returns the report.
func Run() (*Report, error) {
	cfg := relaxreplay.DefaultConfig()
	cfg.Cores = 4
	w := relaxreplay.MustKernel("fft", cfg.Cores, 1)
	rec, err := relaxreplay.Record(cfg, w)
	if err != nil {
		return nil, err
	}
	// encode/decode time the v2 writer, as every earlier BENCH file
	// did, so the history compares like with like.
	var encoded bytes.Buffer
	if err := replaylog.Encode(&encoded, rec.Log()); err != nil {
		return nil, err
	}

	rep := &Report{
		Schema:        "relaxreplay-bench/1",
		GoOS:          runtime.GOOS,
		GoArch:        runtime.GOARCH,
		Workload:      "fft, 4 cores, scale 1 (pipeline); synthetic 8x256 log (codec)",
		HostCPUs:      runtime.NumCPU(),
		BaselinePrePR: baselinePrePR,
	}
	add := func(name string, res testing.BenchmarkResult) {
		rep.Results = append(rep.Results, convert(name, res))
	}

	add("record", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		var cycles uint64
		for i := 0; i < b.N; i++ {
			r, err := relaxreplay.Record(cfg, w)
			if err != nil {
				b.Fatal(err)
			}
			cycles += r.Cycles()
		}
		b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
	}))

	add("encode", testing.Benchmark(func(b *testing.B) {
		b.SetBytes(int64(encoded.Len()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := replaylog.Encode(io.Discard, rec.Log()); err != nil {
				b.Fatal(err)
			}
		}
	}))

	add("decode", testing.Benchmark(func(b *testing.B) {
		data := encoded.Bytes()
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := relaxreplay.ReadLog(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	}))

	add("replay", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := rec.Replay(); err != nil {
				b.Fatal(err)
			}
		}
	}))

	synth := syntheticLog(8, 256)
	var synthBuf bytes.Buffer
	if err := replaylog.Encode(&synthBuf, synth); err != nil {
		return nil, err
	}

	add("encode-synthetic", testing.Benchmark(func(b *testing.B) {
		b.SetBytes(int64(synthBuf.Len()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := replaylog.Encode(io.Discard, synth); err != nil {
				b.Fatal(err)
			}
		}
	}))

	add("decode-synthetic", testing.Benchmark(func(b *testing.B) {
		data := synthBuf.Bytes()
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := replaylog.Decode(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	}))

	add("patch-synthetic", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := synth.Patch(); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// v3 codec: compressed group frames + segment index (encode), and
	// the per-core parallel decode path rrreplay uses.
	var v3Buf bytes.Buffer
	if err := replaylog.EncodeV3(&v3Buf, synth); err != nil {
		return nil, err
	}

	add("encode-v3-synthetic", testing.Benchmark(func(b *testing.B) {
		b.SetBytes(int64(v3Buf.Len()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := replaylog.EncodeV3(io.Discard, synth); err != nil {
				b.Fatal(err)
			}
		}
	}))
	// Pin the size win next to the speed numbers: v3 bytes over v2
	// bytes for the identical log.
	rep.Results[len(rep.Results)-1].CompressionRatio = float64(v3Buf.Len()) / float64(synthBuf.Len())

	add("decode-v3-synthetic", testing.Benchmark(func(b *testing.B) {
		data := v3Buf.Bytes()
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := replaylog.Decode(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	}))

	add("decode-v3-parallel-synthetic", testing.Benchmark(func(b *testing.B) {
		data := v3Buf.Bytes()
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := replaylog.DecodeParallel(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	}))

	return rep, nil
}

// Write runs the benchmarks and writes the indented JSON document.
func Write(w io.Writer) error {
	rep, err := Run()
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
