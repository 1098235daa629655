package replaylog

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to both decoders. Invariants:
// DecodeRobust never panics, never hard-fails on well-prefixed input,
// and anything it calls clean must re-encode and decode to the same
// log; strict Decode must agree with the report's verdict.
func FuzzDecode(f *testing.F) {
	seed := func(l *Log) {
		var v2, v1 bytes.Buffer
		if err := Encode(&v2, l); err != nil {
			f.Fatal(err)
		}
		if err := encodeV1(&v1, l); err != nil {
			f.Fatal(err)
		}
		f.Add(v2.Bytes())
		f.Add(v1.Bytes())
	}
	seed(sampleLog())
	seed(&Log{Cores: 1, Variant: "base", Streams: []CoreLog{{Core: 0}}})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4; i++ {
		seed(randomLog(rng))
	}
	// v3 input is safe here too: the re-encode branch below only fires
	// on Version 2, and the shared invariants must hold on every format.
	var v3 bytes.Buffer
	if err := EncodeV3(&v3, sampleLog()); err != nil {
		f.Fatal(err)
	}
	f.Add(v3.Bytes())
	f.Add([]byte("RRLG"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		l, rep, err := DecodeRobust(bytes.NewReader(data))
		if err != nil {
			if l != nil || rep != nil {
				t.Fatal("hard failure returned a partial result")
			}
			return
		}
		if l == nil || rep == nil {
			t.Fatal("soft path returned nil log or report")
		}
		strict, serr := Decode(bytes.NewReader(data))
		if rep.Clean() != (serr == nil) {
			t.Fatalf("strict Decode err=%v but report clean=%v", serr, rep.Clean())
		}
		if rep.Clean() {
			if !reflect.DeepEqual(strict, l) {
				t.Fatal("strict and robust decode disagree on clean input")
			}
			// v1 is laxer than v2 (duplicate stream cores, non-monotone
			// seqs decode clean), so only v2 input round-trips losslessly.
			if rep.Version != 2 {
				return
			}
			var re bytes.Buffer
			if err := Encode(&re, l); err != nil {
				t.Fatalf("clean decode does not re-encode: %v", err)
			}
			l2, rep2, err := DecodeRobust(bytes.NewReader(re.Bytes()))
			if err != nil || !rep2.Clean() {
				t.Fatalf("re-encoded clean log is not clean: %v %+v", err, rep2)
			}
			if !reflect.DeepEqual(l, l2) {
				t.Fatal("re-encode round trip changed the log")
			}
		}
	})
}

// FuzzDecodeV3 targets the v3 pipeline: group frames, deflate bodies,
// the segment index and the parallel per-core decoder. Invariants:
// DecodeRobust never panics; DecodeParallel returns the identical log
// AND report on every input; and a clean v3 decode re-encodes with
// EncodeV3 losslessly (clean v3 enforces the per-core seq/timestamp
// monotonicity EncodeV3 demands, so re-encoding must never fail).
func FuzzDecodeV3(f *testing.F) {
	seed := func(l *Log, opts V3Options) []byte {
		var buf bytes.Buffer
		if err := EncodeV3With(&buf, l, opts, nil); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		return buf.Bytes()
	}
	clean := seed(sampleLog(), V3Options{})
	seed(sampleLog(), V3Options{NoCompress: true})
	seed(sampleLog(), V3Options{GroupSize: 1})
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 3; i++ {
		seed(randomLog(rng), V3Options{})
	}
	// Damaged variants: a flipped payload byte (CRC salvage path), a
	// truncated tail (lost index footer), and a bare preamble.
	flipped := append([]byte(nil), clean...)
	if len(flipped) > 40 {
		flipped[len(flipped)-40] ^= 0xFF
	}
	f.Add(flipped)
	f.Add(clean[:len(clean)*2/3])
	f.Add([]byte{'R', 'R', 'L', 'G', 3, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		l, rep, err := DecodeRobust(bytes.NewReader(data))
		pl, prep, perr := DecodeParallel(bytes.NewReader(data))
		if (err == nil) != (perr == nil) {
			t.Fatalf("robust err=%v but parallel err=%v", err, perr)
		}
		if err != nil {
			if l != nil || rep != nil {
				t.Fatal("hard failure returned a partial result")
			}
			return
		}
		if !reflect.DeepEqual(l, pl) || !reflect.DeepEqual(rep, prep) {
			t.Fatal("parallel decode disagrees with robust decode")
		}
		if rep.Clean() && rep.Version == 3 {
			var re bytes.Buffer
			if err := EncodeV3(&re, l); err != nil {
				t.Fatalf("clean v3 decode does not re-encode: %v", err)
			}
			l2, rep2, err := DecodeRobust(bytes.NewReader(re.Bytes()))
			if err != nil || !rep2.Clean() {
				t.Fatalf("re-encoded clean v3 log is not clean: %v %+v", err, rep2)
			}
			if !reflect.DeepEqual(l, l2) {
				t.Fatal("v3 re-encode round trip changed the log")
			}
		}
	})
}

// FuzzDecodeProvenance targets the FrameProvenance codec: the sideband
// payload parser, its version gate, and the frame-is-the-unit-of-loss
// salvage rule. Invariants: DecodeRobust never panics and DecodeParallel
// agrees exactly; every decoded record respects the wire limits the
// parser promises to enforce; and a clean v3 decode re-encodes with
// EncodeV3 losslessly, sideband included.
func FuzzDecodeProvenance(f *testing.F) {
	clean := func() []byte {
		var buf bytes.Buffer
		if err := EncodeV3(&buf, provSampleLog()); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}()
	f.Add(clean)
	// A sideband-free v3 log keeps the fuzzer honest about the absent case.
	var bare bytes.Buffer
	if err := EncodeV3(&bare, sampleLog()); err != nil {
		f.Fatal(err)
	}
	f.Add(bare.Bytes())
	// Damaged variants aimed at the provenance frame specifically: a
	// flipped payload byte (CRC drop), an unknown payload version with a
	// recomputed CRC (clean skip), and a truncated tail.
	if start, end := findFrame(clean, FrameProvenance); start >= 0 {
		flipped := append([]byte(nil), clean...)
		flipped[start+9+2] ^= 0xFF
		f.Add(flipped)
		future := append([]byte(nil), clean...)
		future[start+9] = provVersion + 7
		reframe(future, start, end)
		f.Add(future)
		f.Add(clean[:end-2])
	}
	f.Add([]byte{'R', 'R', 'L', 'G', 3, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		l, rep, err := DecodeRobust(bytes.NewReader(data))
		pl, prep, perr := DecodeParallel(bytes.NewReader(data))
		if (err == nil) != (perr == nil) {
			t.Fatalf("robust err=%v but parallel err=%v", err, perr)
		}
		if err != nil {
			if l != nil || rep != nil {
				t.Fatal("hard failure returned a partial result")
			}
			return
		}
		if !reflect.DeepEqual(l, pl) || !reflect.DeepEqual(rep, prep) {
			t.Fatal("parallel decode disagrees with robust decode")
		}
		for _, cp := range l.Provenance {
			if cp.Core < 0 || cp.Core >= MaxCores {
				t.Fatalf("decoded provenance core %d out of range", cp.Core)
			}
			if len(cp.Records) > MaxIntervalsPerCore {
				t.Fatalf("core %d decoded %d provenance records (limit %d)",
					cp.Core, len(cp.Records), MaxIntervalsPerCore)
			}
			for _, r := range cp.Records {
				if r.RemoteCore < -1 || int(r.RemoteCore) >= MaxCores {
					t.Fatalf("decoded remote core %d out of range", r.RemoteCore)
				}
				if len(r.Reorders) > MaxEntriesPerInterval {
					t.Fatalf("seq %d decoded %d reorders (limit %d)",
						r.Seq, len(r.Reorders), MaxEntriesPerInterval)
				}
			}
		}
		if rep.Clean() && rep.Version == 3 {
			var re bytes.Buffer
			if err := EncodeV3(&re, l); err != nil {
				t.Fatalf("clean v3 decode does not re-encode: %v", err)
			}
			l2, rep2, err := DecodeRobust(bytes.NewReader(re.Bytes()))
			if err != nil || !rep2.Clean() {
				t.Fatalf("re-encoded clean v3 log is not clean: %v %+v", err, rep2)
			}
			if !reflect.DeepEqual(l, l2) {
				t.Fatal("v3 re-encode round trip dropped or changed the sideband")
			}
		}
	})
}

// FuzzPatch checks the one patching pass in both modes on small logs
// built from the fuzz bytes: seq gaps and steps back, offsets that
// reach past the stream start or into a gap, and every pre-patch entry
// kind, failed CAS included. Invariants: neither mode modifies its
// input; strict Patch fails exactly when PatchPartial drops a store;
// when Patch succeeds the two results are equal; every moved store is
// either placed or counted as dropped; and every result validates.
func FuzzPatch(f *testing.F) {
	f.Add([]byte{})
	// A clean stream, Seq 0, 1, 2: a store two back and an atomic one
	// back from Seq 2.
	f.Add([]byte{0, 0, 3, 1, 4, 0, 1, 1, 2, 1, 0, 1, 2, 2, 2, 0x13, 1, 0, 0})
	// The mid-stream gap: Seq 0, 1, 3, with a store one back from 3.
	f.Add([]byte{0, 0, 3, 1, 4, 0, 1, 1, 4, 0xc0, 1, 1, 2, 1, 0, 0})
	// Two cores. Core 0 steps back from Seq 2 to 1 and repeats 2; it
	// holds a failed CAS reaching before the stream and an atomic with
	// offset 0. Core 1's one store reaches before Seq 0.
	f.Add([]byte{1, 2, 3, 1, 0x03, 4, 0xf0, 1, 1, 0x13, 0, 0, 1, 1, 0x02, 1, 0, 0, 0, 1, 1, 0x02, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		l := fuzzPatchLog(data)
		strict, err := l.Patch()
		partial, dropped, perr := l.PatchPartial()
		if !reflect.DeepEqual(l, fuzzPatchLog(data)) {
			t.Fatal("patching modified its input")
		}
		if perr != nil {
			t.Fatalf("PatchPartial: %v", perr)
		}
		if (err != nil) != (dropped > 0) {
			t.Fatalf("Patch err = %v, but PatchPartial dropped %d", err, dropped)
		}
		if err == nil {
			if !reflect.DeepEqual(strict, partial) {
				t.Fatal("Patch and PatchPartial disagree on a log Patch accepts")
			}
			if err := strict.Validate(); err != nil {
				t.Fatalf("Patch result: %v", err)
			}
		}
		if err := partial.Validate(); err != nil {
			t.Fatalf("PatchPartial result: %v", err)
		}
		moved := 0
		for _, s := range l.Streams {
			for _, iv := range s.Intervals {
				for _, e := range iv.Entries {
					if e.Type == ReorderedStore || e.Type == ReorderedAtomic && e.DidWrite {
						moved++
					}
				}
			}
		}
		if placed := partial.CountEntries(PatchedStore); placed+dropped != moved {
			t.Fatalf("%d stores placed + %d dropped, want %d moved", placed, dropped, moved)
		}
		if partial.Instructions() != l.Instructions() {
			t.Fatalf("patched log replays %d instructions, want %d", partial.Instructions(), l.Instructions())
		}
	})
}

// fuzzPatchLog builds an unpatched log from fuzz bytes (zeros once they
// run out). Timestamps rise and CISNs match their Seq, so the input
// validates whatever its seq gaps and offsets.
func fuzzPatchLog(data []byte) *Log {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	l := &Log{Cores: 1 + int(next()%3)}
	for c := 0; c < l.Cores; c++ {
		s := CoreLog{Core: c}
		seq, ts := uint64(next()%3), uint64(1)
		for n := next() % 6; n > 0; n-- {
			iv := Interval{Seq: seq, CISN: uint16(seq), Timestamp: ts}
			for k := next() % 4; k > 0; k-- {
				b := next()
				e := Entry{Type: []EntryType{InorderBlock, ReorderedLoad, ReorderedStore, ReorderedAtomic}[b%4]}
				switch e.Type {
				case InorderBlock:
					e.Size = 1 + uint32(b>>2)
				case ReorderedLoad:
					e.Value = uint64(b)
				case ReorderedStore, ReorderedAtomic:
					e.Addr, e.Value, e.StoreValue = uint64(b)*8, uint64(b), uint64(b)+1
					e.DidWrite = b&0x10 != 0
					e.Offset = uint16(next() % 5)
				}
				iv.Entries = append(iv.Entries, e)
			}
			if seq%4 == 1 {
				iv.Preds = []Pred{{Core: c, Seq: seq}}
			}
			s.Intervals = append(s.Intervals, iv)
			switch step := next(); {
			case step >= 0xf0 && seq > 0:
				seq-- // a step back, which only a hand-built log has
			case step >= 0xc0:
				seq += 2 + uint64(step%2) // a gap of one or two
			default:
				seq++
			}
			ts += uint64(next() % 3)
		}
		l.Streams = append(l.Streams, s)
	}
	return l
}
