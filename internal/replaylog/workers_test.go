package replaylog

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"

	"relaxreplay/internal/faultinject"
)

// workerCounts are the flate worker counts the encoder must agree at:
// the inline path, a pair, and more workers than most logs have
// streams.
var workerCounts = []int{1, 2, 8}

// encodeWorkers encodes l at the given worker count into w and returns
// the error; with dup set it arms log.dupframe at a fixed seed.
func encodeWorkers(w io.Writer, l *Log, opts v3Options, dup bool, workers int) error {
	var inj *faultinject.Injector
	if dup {
		inj = faultinject.New(21, faultinject.LogDupFrame)
	}
	return encodeV3(w, l, opts, inj, workers)
}

// TestEncodeV3BytesIndependentOfWorkers: the flate stage runs on up to
// min(workers, streams) goroutines, and which one compresses a group
// must change no byte, no index span and not when log.dupframe fires.
func TestEncodeV3BytesIndependentOfWorkers(t *testing.T) {
	cases := []struct {
		name string
		l    *Log
		opts v3Options
	}{
		{"bench", benchLog(8, 256), v3Options{}},
		{"bench/group7", benchLog(8, 256), v3Options{groupSize: 7}},
		{"bench/nocompress", benchLog(8, 256), v3Options{noCompress: true}},
		{"one-core", benchLog(1, 300), v3Options{}},
		{"sample", sampleLog(), v3Options{}},
		{"empty", &Log{Cores: 2, Variant: "opt", Streams: []CoreLog{{Core: 0}, {Core: 1}}}, v3Options{}},
	}
	for _, c := range cases {
		for _, dup := range []bool{false, true} {
			var want bytes.Buffer
			if err := encodeWorkers(&want, c.l, c.opts, dup, 1); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			for _, n := range workerCounts[1:] {
				var got bytes.Buffer
				if err := encodeWorkers(&got, c.l, c.opts, dup, n); err != nil {
					t.Fatalf("%s at %d workers: %v", c.name, n, err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Errorf("%s (dupframe %v): %d workers wrote %d bytes that differ from 1 worker's %d",
						c.name, dup, n, got.Len(), want.Len())
				}
			}
		}
	}
}

// TestEncodeV3ConcurrentEncodes runs multi-worker encodes from several
// goroutines at once, all drawing on the shared encoder and compressor
// pools; every one must write the single-worker bytes.
func TestEncodeV3ConcurrentEncodes(t *testing.T) {
	logs := []*Log{benchLog(8, 256), sampleLog(), benchLog(3, 100)}
	want := make([][]byte, len(logs))
	for i, l := range logs {
		var b bytes.Buffer
		if err := encodeWorkers(&b, l, v3Options{}, false, 1); err != nil {
			t.Fatal(err)
		}
		want[i] = b.Bytes()
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 12 {
				k := (g + i) % len(logs)
				var b bytes.Buffer
				if err := encodeWorkers(&b, logs[k], v3Options{}, false, 1+i%3); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(b.Bytes(), want[k]) {
					t.Errorf("goroutine %d, encode %d: log %d differs from its single-worker bytes", g, i, k)
				}
			}
		}()
	}
	wg.Wait()
}

// failAfter accepts n bytes, then fails every write.
type failAfter struct {
	buf bytes.Buffer
	n   int
}

var errWriteFailed = errors.New("write failed")

func (f *failAfter) Write(p []byte) (int, error) {
	if room := f.n - f.buf.Len(); len(p) > room {
		f.buf.Write(p[:max(room, 0)])
		return max(room, 0), errWriteFailed
	}
	return f.buf.Write(p)
}

// TestEncodeV3ErrorIndependentOfWorkers: a log the encoder refuses, or
// a writer that fails mid-file, must give the same error, after the
// same bytes, at every worker count — the error of the first failing
// group in file order, not of whichever worker finished first.
func TestEncodeV3ErrorIndependentOfWorkers(t *testing.T) {
	unordered := benchLog(8, 256)
	unordered.Streams[2].Intervals[50].Seq = unordered.Streams[2].Intervals[49].Seq
	badType := benchLog(8, 256)
	badType.Streams[5].Intervals[130].Entries[0].Type = EntryType(99)
	oversize := benchLog(8, 256)
	oversize.Streams[6].Intervals[70].Preds = make([]Pred, MaxPredsPerInterval+1)
	cases := []struct {
		name  string
		l     *Log
		limit int // bytes the writer accepts; 0 means no limit
		want  error
	}{
		{"unordered", unordered, 0, ErrUnordered},
		{"unknown entry type in a later core", badType, 0, errV3EntryType},
		{"oversize interval in a later core", oversize, 0, ErrOversizeFrame},
		{"writer fails mid-file", benchLog(8, 256), 6000, errWriteFailed},
	}
	for _, c := range cases {
		var first *failAfter
		var firstErr error
		for _, n := range workerCounts {
			w := &failAfter{n: c.limit}
			if c.limit == 0 {
				w.n = 1 << 30
			}
			err := encodeWorkers(w, c.l, v3Options{}, false, n)
			if !errors.Is(err, c.want) {
				t.Fatalf("%s at %d workers: err = %v, want %v", c.name, n, err, c.want)
			}
			if first == nil {
				first, firstErr = w, err
				continue
			}
			if err.Error() != firstErr.Error() {
				t.Errorf("%s: %d workers returned %q, 1 worker %q", c.name, n, err, firstErr)
			}
			if !bytes.Equal(w.buf.Bytes(), first.buf.Bytes()) {
				t.Errorf("%s: %d workers wrote %d bytes before failing, 1 worker %d", c.name, n, w.buf.Len(), first.buf.Len())
			}
		}
	}
}
