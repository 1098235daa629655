package replaylog

import (
	"bytes"
	"reflect"
	"testing"

	"relaxreplay/internal/frame"
	"relaxreplay/internal/provenance"
)

// provSampleLog returns sampleLog with a plausible provenance sideband
// attached: one stream per core, causes and conflict details varied.
func provSampleLog() *Log {
	l := sampleLog()
	l.Provenance = []provenance.CoreProvenance{
		{Core: 0, Records: []provenance.Record{
			{Seq: 0, Cause: provenance.CauseSize, Cycle: 90, TRAQOccupancy: 3, SnoopNonzero: 1, RemoteCore: -1},
			{Seq: 1, Cause: provenance.CauseConflict, Cycle: 195, TRAQOccupancy: 7, SnoopNonzero: 2,
				ConflictLine: 0x2000 >> 5, ConflictWrite: true, RemoteCore: 1,
				Reorders: []provenance.Reorder{
					{Kind: provenance.ReorderLoad, Offset: 1, Cycle: 150},
					{Kind: provenance.ReorderStore, Offset: 1, Cycle: 160},
				}},
		}},
		{Core: 1, Records: []provenance.Record{
			{Seq: 0, Cause: provenance.CauseFinal, Cycle: 170, TRAQOccupancy: 1, RemoteCore: -1,
				Reorders: []provenance.Reorder{{Kind: provenance.ReorderAtomic, Offset: 2, Cycle: 140}}},
		}},
	}
	return l
}

// findFrame scans encoded bytes for the first frame of the given type
// and returns the offset of its sync word, its end offset, or -1.
func findFrame(data []byte, want FrameType) (start, end int) {
	s := frame.NewScanner(data, MaxFrameLen, nil)
	for {
		f, ok := s.Next()
		if !ok {
			return -1, -1
		}
		if FrameType(f.Type) == want {
			return f.Off, f.Off + frame.Overhead + len(f.Payload)
		}
	}
}

// reframe recomputes the CRC of the frame at [start,end) in place,
// after a test mutated its payload deliberately.
func reframe(data []byte, start, end int) {
	copy(data[start:end], frameBytes(FrameType(data[start+4]), data[start+frame.HeaderLen:end-4]))
}

// TestProvenanceV3RoundTrip: the sideband survives an encode/decode
// cycle exactly, decoded on one worker and on four.
func TestProvenanceV3RoundTrip(t *testing.T) {
	l := provSampleLog()
	var buf bytes.Buffer
	if err := EncodeV3(&buf, l); err != nil {
		t.Fatal(err)
	}
	got, rep, err := decodeReader(bytes.NewReader(buf.Bytes()), 1)
	if err != nil || !rep.Clean() {
		t.Fatalf("decode: err=%v report=%+v", err, rep)
	}
	if !reflect.DeepEqual(got.Provenance, l.Provenance) {
		t.Fatalf("provenance changed:\n got %+v\nwant %+v", got.Provenance, l.Provenance)
	}
	pgot, prep, perr := decodeReader(bytes.NewReader(buf.Bytes()), 4)
	if perr != nil || !reflect.DeepEqual(pgot, got) || !reflect.DeepEqual(prep, rep) {
		t.Fatalf("parallel decode disagrees: err=%v", perr)
	}
}

// TestProvenanceDoesNotChangeV2OrPlainV3: the v2 encoder ignores the
// sideband entirely, and a log without provenance encodes to v3 bytes
// containing no FrameProvenance — the byte-identity guarantees that
// keep pre-provenance comparisons and baselines valid.
func TestProvenanceDoesNotChangeV2OrPlainV3(t *testing.T) {
	with := provSampleLog()
	without := sampleLog()

	var v2with, v2without bytes.Buffer
	if err := Encode(&v2with, with); err != nil {
		t.Fatal(err)
	}
	if err := Encode(&v2without, without); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v2with.Bytes(), v2without.Bytes()) {
		t.Fatal("v2 encoding changed when provenance was attached")
	}

	var v3 bytes.Buffer
	if err := EncodeV3(&v3, without); err != nil {
		t.Fatal(err)
	}
	if s, _ := findFrame(v3.Bytes()[preambleLen:], FrameProvenance); s >= 0 {
		t.Fatal("v3 encoding of a provenance-free log contains a FrameProvenance")
	}
}

// TestProvenanceUnknownVersionSkippedCleanly: a frame with a future
// payload version is skipped without a corruption report — the decode
// stays clean and simply carries no sideband.
func TestProvenanceUnknownVersionSkippedCleanly(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeV3(&buf, provSampleLog()); err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), buf.Bytes()...)
	patched := 0
	for off := 0; ; {
		s, e := findFrame(data[off:], FrameProvenance)
		if s < 0 {
			break
		}
		s, e = s+off, e+off
		if data[s+9] != provVersion {
			t.Fatalf("unexpected payload version %d", data[s+9])
		}
		data[s+9] = provVersion + 41
		reframe(data, s, e)
		patched++
		off = e
	}
	if patched == 0 {
		t.Fatal("no provenance frames found")
	}
	got, rep, err := DecodeParallel(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("future-version frames should skip cleanly, report: %s", rep.Summary())
	}
	if got.Provenance != nil {
		t.Fatalf("future-version frames should carry no sideband, got %+v", got.Provenance)
	}
	if !reflect.DeepEqual(got.Streams, sampleLog().Streams) {
		t.Fatal("interval streams changed")
	}
}

// TestProvenanceSurvivesGroupCorruption: DecodeParallel salvages the
// sideband independently — shredding a group frame loses intervals,
// never the provenance.
func TestProvenanceSurvivesGroupCorruption(t *testing.T) {
	l := provSampleLog()
	var buf bytes.Buffer
	if err := EncodeV3(&buf, l); err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), buf.Bytes()...)
	s, e := findFrame(data, FrameIvGroup)
	if s < 0 {
		t.Fatal("no group frame found")
	}
	data[(s+9+e-4)/2] ^= 0xFF // corrupt the group payload, CRC now fails
	got, rep, err := DecodeParallel(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("corrupted group decoded clean")
	}
	if !reflect.DeepEqual(got.Provenance, l.Provenance) {
		t.Fatalf("provenance lost with the group frame:\n got %+v\nwant %+v", got.Provenance, l.Provenance)
	}
}

// TestProvenanceCorruptFrameDropsSidebandOnly: the converse — a
// corrupt provenance frame costs the sideband record set of that frame
// and nothing else.
func TestProvenanceCorruptFrameDropsSidebandOnly(t *testing.T) {
	l := provSampleLog()
	var buf bytes.Buffer
	if err := EncodeV3(&buf, l); err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), buf.Bytes()...)
	s, e := findFrame(data, FrameProvenance)
	if s < 0 {
		t.Fatal("no provenance frame found")
	}
	data[(s+9+e-4)/2] ^= 0xFF
	got, rep, err := DecodeParallel(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("corrupted provenance frame decoded clean")
	}
	if !reflect.DeepEqual(got.Streams, l.Streams) {
		t.Fatal("interval streams were damaged by a provenance-frame corruption")
	}
	if len(got.Provenance) >= len(l.Provenance) {
		t.Fatalf("corrupt provenance frame was not dropped: %+v", got.Provenance)
	}
}

// TestProvenanceDuplicateCoreFramesConcatenate: the decoder merges
// multiple frames for one core in file order, so the in-memory form is
// canonical regardless of how an encoder split the stream.
func TestProvenanceDuplicateCoreFramesConcatenate(t *testing.T) {
	l := sampleLog()
	recs := provSampleLog().Provenance[0].Records
	l.Provenance = []provenance.CoreProvenance{
		{Core: 0, Records: recs[:1]},
		{Core: 0, Records: recs[1:]},
	}
	var buf bytes.Buffer
	if err := EncodeV3(&buf, l); err != nil {
		t.Fatal(err)
	}
	got, rep, err := DecodeParallel(bytes.NewReader(buf.Bytes()))
	if err != nil || !rep.Clean() {
		t.Fatalf("decode: err=%v report=%+v", err, rep)
	}
	if len(got.Provenance) != 1 || got.Provenance[0].Core != 0 {
		t.Fatalf("frames did not merge: %+v", got.Provenance)
	}
	if !reflect.DeepEqual(got.Provenance[0].Records, recs) {
		t.Fatalf("merged records wrong:\n got %+v\nwant %+v", got.Provenance[0].Records, recs)
	}
}

// TestProvenanceEncodeClamps: encoder refuses out-of-clamp sidebands
// the same way it refuses oversize frames.
func TestProvenanceEncodeClamps(t *testing.T) {
	l := sampleLog()
	l.Provenance = []provenance.CoreProvenance{{Core: MaxCores}}
	var buf bytes.Buffer
	if err := EncodeV3(&buf, l); err == nil {
		t.Fatal("core out of range encoded")
	}
}

// TestProvenancePatchCarriesSideband: patching preserves the sideband
// so replay-time forensics can reach it on the patched log.
func TestProvenancePatchCarriesSideband(t *testing.T) {
	l := provSampleLog()
	p, err := l.Patch()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Provenance, l.Provenance) {
		t.Fatal("Patch dropped the provenance sideband")
	}
	pp, _, err := l.PatchPartial()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pp.Provenance, l.Provenance) {
		t.Fatal("PatchPartial dropped the provenance sideband")
	}
}
