package rrnet

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// TestGoldenWireFrames pins the bytes of one frame of every wire
// message type. A framing or payload-codec change that moves one byte
// on the wire fails here; a deliberate protocol change regenerates the
// file with `go test -run TestGoldenWireFrames -update ./internal/rrnet/`.
func TestGoldenWireFrames(t *testing.T) {
	msgs := []struct {
		t       MsgType
		payload []byte
	}{
		{MsgHello, encodeHello(helloMsg{Proto: ProtoVersion, Session: 0x1122334455667788, Resume: true, Tenant: "tenant-a"})},
		{MsgHelloAck, encodeHelloAck(helloAckMsg{Status: StatusDegraded, Contig: 41, Durable: 40, Reason: "resumed"})},
		{MsgChunk, encodeChunk(chunkMsg{Session: 7, Seq: 3, Data: []byte("RRLG\x03\x00chunk-bytes")})},
		{MsgAck, encodeAck(ackMsg{Session: 7, Contig: 4, Durable: 2})},
		{MsgCommit, encodeCommit(commitMsg{Session: 7, Chunks: 9, LogLen: 4096, LogCRC: 0xC0FFEE11, NDrop: 2, Dropped: []uint64{3, 5}})},
		{MsgCommitAck, encodeCommitAck(commitAckMsg{Session: 7, Status: StatusReject, Missing: 1, Reason: "gap at 3"})},
		{MsgHeartbeat, encodeNonce(0xFEEDFACE)},
		{MsgHeartbeatAck, encodeNonce(0xFEEDFACF)},
		{MsgError, encodeError(errorMsg{Code: 2, Message: "session table full"})},
	}
	var b strings.Builder
	for _, m := range msgs {
		var buf bytes.Buffer
		if err := writeFrame(&buf, m.t, m.payload); err != nil {
			t.Fatalf("%s: %v", m.t, err)
		}
		fmt.Fprintf(&b, "%s %s\n", m.t, hex.EncodeToString(buf.Bytes()))
	}
	checkGolden(t, "testdata/wire_frames.golden", b.String())
}

// scriptedJournal writes a fixed session through the Journal API and
// returns the file's bytes. fsyncEvery is small enough that a
// jr-segment record lands between chunks, not only after the commit.
func scriptedJournal(t testing.TB) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "script.rrjl")
	j, err := OpenJournal(path, 48)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Session(7, "tenant-a"); err != nil {
		t.Fatal(err)
	}
	chunks := []string{"first chunk of log bytes", "second", "third and last chunk"}
	var n uint64
	for i, c := range chunks {
		if _, err := j.Chunk(7, uint64(i), []byte(c)); err != nil {
			t.Fatal(err)
		}
		n += uint64(len(c))
	}
	if err := j.Commit(7, StatusOK, uint64(len(chunks)), n, 0x5EED5EED, 0, 0, ""); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestGoldenJournalBytes pins the bytes of the scripted journal.
func TestGoldenJournalBytes(t *testing.T) {
	raw := scriptedJournal(t)
	checkGolden(t, "testdata/journal_bytes.golden", hex.EncodeToString(raw)+"\n")
}

// TestGoldenJournalSalvage damages the scripted journal four ways per
// seed and pins what recovery reports: the salvage counters and each
// session's recovered chunk, durable and commit state.
func TestGoldenJournalSalvage(t *testing.T) {
	raw := scriptedJournal(t)
	dir := t.TempDir()
	var b strings.Builder
	for seed := int64(1); seed <= 3; seed++ {
		for _, d := range damages {
			bad := d.apply(raw, rand.New(rand.NewSource(seed)), 8)
			path := filepath.Join(dir, fmt.Sprintf("%s-%d.rrjl", d.name, seed))
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			v, err := ReadJournal(path)
			if err != nil {
				fmt.Fprintf(&b, "%s/%d error %v\n", d.name, seed, err)
				continue
			}
			fmt.Fprintf(&b, "%s/%d skipped=%d dropped=%d dups=%d torn=%v", d.name, seed,
				v.SkippedBytes, v.DroppedFrames, v.DupChunks, v.TornTail)
			for _, id := range v.SortedIDs() {
				s := v.Sessions[id]
				fmt.Fprintf(&b, " s%d:chunks=%d,durable=%d,committed=%v,data=%q", id, s.Chunks, s.Durable, s.Committed, s.Data)
			}
			b.WriteString("\n")
		}
	}
	checkGolden(t, "testdata/journal_salvage.golden", b.String())
}

// damages are the seeded corruptions the salvage goldens apply. Each
// leaves the first skip bytes (the file header) alone. dupframe copies
// the bytes between two consecutive sync words, so it finds frames
// without parsing a header.
var damages = []struct {
	name  string
	apply func(data []byte, rng *rand.Rand, skip int) []byte
}{
	{"bitflip", func(data []byte, rng *rand.Rand, skip int) []byte {
		out := append([]byte(nil), data...)
		out[skip+rng.Intn(len(out)-skip)] ^= 1 << rng.Intn(8)
		return out
	}},
	{"truncate", func(data []byte, rng *rand.Rand, skip int) []byte {
		return append([]byte(nil), data[:skip+rng.Intn(len(data)-skip)]...)
	}},
	{"splice", func(data []byte, rng *rand.Rand, skip int) []byte {
		at := skip + rng.Intn(len(data)-skip)
		junk := make([]byte, 5+rng.Intn(40))
		rng.Read(junk)
		// A sync word with a plausible header inside the junk: the
		// scan must reject it, not trust its length.
		junk = append(junk, 0xF5, 'R', 'F', '2', byte(rng.Intn(256)), byte(rng.Intn(256)), 0, 0, 0)
		out := append([]byte(nil), data[:at]...)
		out = append(out, junk...)
		return append(out, data[at:]...)
	}},
	{"dupframe", func(data []byte, rng *rand.Rand, skip int) []byte {
		sync := []byte{0xF5, 'R', 'F', '2'}
		var starts []int
		for i := skip; ; {
			j := bytes.Index(data[i:], sync)
			if j < 0 {
				break
			}
			starts = append(starts, i+j)
			i += j + 1
		}
		starts = append(starts, len(data))
		k := rng.Intn(len(starts) - 1)
		frame := data[starts[k]:starts[k+1]]
		out := append([]byte(nil), data[:starts[k+1]]...)
		out = append(out, frame...)
		return append(out, data[starts[k+1]:]...)
	}},
}

// checkGolden compares got line by line with the golden file, first
// rewriting the file under -update.
func checkGolden(t *testing.T, file, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("read %s (run with -update to generate): %v", file, err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines, %s holds %d", len(gotLines)-1, file, len(wantLines)-1)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("%s changed:\n got  %s\n want %s", file, gotLines[i], wantLines[i])
		}
	}
}
